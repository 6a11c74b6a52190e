"""Qlosure: the dependence-driven qubit mapper (the paper's contribution).

The mapper follows Algorithm 1 of the paper: circuits are lifted to the
affine IR, the dependence relation and its transitive closure provide a
weight ``omega`` for every gate, and the routing loop inserts SWAPs chosen by
the layered, dependence-weighted cost function ``M(s)`` (Eq. 2).

The router registers itself as ``"qlosure"``, so the way to run it is
:func:`repro.api.compile`::

    from repro.api import CompileRequest, compile
    result = compile(CompileRequest(generate="ghz:20", backend="sherbrooke",
                                    router="qlosure", router_config=QlosureConfig(),
                                    placement="bidirectional"))

This package holds the pieces that request names:

* :class:`~repro.core.router.QlosureRouter` -- the routing engine itself,
* :class:`~repro.core.config.QlosureConfig` -- tuning knobs and the ablation
  switches used in the paper's Fig. 8 study (``router_config=``),
* :mod:`~repro.core.placement` -- the initial-layout strategies
  (``placement=``), including the bidirectional forward/backward search.
"""

from repro.core.config import QlosureConfig
from repro.core.lookahead import LookaheadWindow, build_lookahead
from repro.core.router import QlosureRouter
from repro.core.bidirectional import bidirectional_initial_layout
from repro.core.placement import greedy_placement, initial_layout, placement_cost
from repro.core.error_aware import ErrorAwareQlosureRouter, map_circuit_error_aware

__all__ = [
    "QlosureConfig",
    "LookaheadWindow",
    "build_lookahead",
    "QlosureRouter",
    "bidirectional_initial_layout",
    "greedy_placement",
    "initial_layout",
    "placement_cost",
    "ErrorAwareQlosureRouter",
    "map_circuit_error_aware",
]
