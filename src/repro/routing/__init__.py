"""Shared routing infrastructure used by Qlosure and the baseline mappers.

The routing problem has a common skeleton regardless of the SWAP-selection
heuristic: maintain a logical-to-physical layout, execute dependence-ready
gates whose operands are adjacent, and insert SWAPs chosen by a heuristic
when no gate can make progress.  This subpackage provides that skeleton:

* :class:`~repro.routing.layout.Layout` -- the bijective (partial)
  logical-to-physical qubit assignment,
* :class:`~repro.routing.result.RoutingResult` -- the routed circuit plus
  bookkeeping (layouts, SWAP count, depth, runtime),
* :class:`~repro.routing.engine.RoutingEngine` -- the traversal loop and its
  one SWAP-selection step; concrete routers (Qlosure, SABRE, the
  distance-only ablation router, the Cirq/tket-style time-sliced routers)
  specialise it by pricing candidate SWAPs.
"""

from repro.routing.layout import Layout
from repro.routing.result import RoutingResult
from repro.routing.engine import RouterError, RoutingEngine, RoutingState

__all__ = [
    "Layout",
    "RoutingResult",
    "RouterError",
    "RoutingEngine",
    "RoutingState",
]
