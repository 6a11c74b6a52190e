"""Qlosure: dependence-driven, scalable quantum circuit mapping with affine abstractions.

This package is a from-scratch reproduction of the CGO 2026 paper
"Dependence-Driven, Scalable Quantum Circuit Mapping with Affine
Abstractions".  It contains the Qlosure mapper (the paper's contribution) and
every substrate it depends on: a polyhedral-lite integer set/map library, an
OpenQASM 2.0 front-end, a circuit IR with dependence analysis, hardware
coupling-graph models, reimplementations of the four baseline mappers, and
the QUEKO / QASMBench-style workload generators used by the evaluation.

Every router runs through one pipeline, :func:`repro.api.compile`
(load -> place -> route -> validate -> metrics); :func:`repro.compile_many`
runs a batch of requests.  Quickstart::

    from repro.api import CompileRequest, compile
    from repro.benchgen.qasmbench import ghz_circuit

    result = compile(CompileRequest(circuit=ghz_circuit(20), backend="sherbrooke",
                                    router="qlosure", validation="full"))
    print(result.swaps_added, result.routed_depth)
"""

from repro.circuit import QuantumCircuit, Gate, CircuitDAG, verify_routing
from repro.hardware import (
    CouplingGraph,
    sherbrooke,
    ankaa3,
    sherbrooke_2x,
    grid_9x9,
    grid_16x16,
    backend_by_name,
)
from repro.core import (
    QlosureConfig,
    QlosureRouter,
    ErrorAwareQlosureRouter,
    map_circuit_error_aware,
)
from repro.hardware.noise import NoiseModel, success_probability
from repro.routing import Layout, RoutingResult
from repro.baselines import (
    SabreRouter,
    LightSabreRouter,
    QmapLikeRouter,
    CirqLikeRouter,
    TketLikeRouter,
    GreedyDistanceRouter,
)
from repro.affine import lift_circuit, dependence_weights, DependenceAnalysis
from repro.qasm import circuit_from_qasm, circuit_to_qasm, load_qasm_file
from repro import api
from repro.api import (
    BatchResult,
    CompileError,
    CompileRequest,
    CompileResult,
    compile_many,
    register_router,
)

from repro._version import __version__

__all__ = [
    "QuantumCircuit",
    "Gate",
    "CircuitDAG",
    "verify_routing",
    "CouplingGraph",
    "sherbrooke",
    "ankaa3",
    "sherbrooke_2x",
    "grid_9x9",
    "grid_16x16",
    "backend_by_name",
    "QlosureConfig",
    "QlosureRouter",
    "ErrorAwareQlosureRouter",
    "map_circuit_error_aware",
    "NoiseModel",
    "success_probability",
    "Layout",
    "RoutingResult",
    "SabreRouter",
    "LightSabreRouter",
    "QmapLikeRouter",
    "CirqLikeRouter",
    "TketLikeRouter",
    "GreedyDistanceRouter",
    "lift_circuit",
    "dependence_weights",
    "DependenceAnalysis",
    "circuit_from_qasm",
    "circuit_to_qasm",
    "load_qasm_file",
    "api",
    "BatchResult",
    "CompileError",
    "CompileRequest",
    "CompileResult",
    "compile_many",
    "register_router",
    "__version__",
]
