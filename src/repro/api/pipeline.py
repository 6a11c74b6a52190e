"""The compile pipeline: load -> place -> route -> validate -> metrics.

:func:`compile` is the one public entry point for mapping a circuit onto a
device.  It runs an explicit pass sequence over a
:class:`~repro.api.request.CompileRequest`, times every pass individually and
returns a :class:`~repro.api.result.CompileResult`.  All router construction
goes through the :mod:`repro.api.registry`, so a routed circuit is a pure
function of the request: same request, same bits.

Pass responsibilities:

* ``load``      materialise the circuit (in-memory / QASM file / generator
  spec) and resolve the backend coupling graph,
* ``place``     build the initial layout with the requested strategy
  (:mod:`repro.core.placement`),
* ``route``     instantiate the router from the registry and run it -- this
  pass's timing is the mapping-time trajectory number,
* ``validate``  optional connectivity / full semantic check of the routed
  circuit,
* ``metrics``   derive the flat quality-metric record the evaluation tables
  consume.

Because a routed circuit is a pure function of the request, :func:`compile`
consults the content-addressed cache (:mod:`repro.api.cache`) before running
the pass sequence: by default an in-process LRU keyed on the request
fingerprint (disk persistence is opt-in via a cache with a ``directory`` or
the ``REPRO_CACHE_DIR`` environment variable), bypassable per call with
``cache=False``.  A hit rehydrates the stored payload -- bit-for-bit
identical to a fresh run -- with the original pass timings, so cached
results never distort a timing trajectory with near-zero replay times.
"""

from __future__ import annotations

import time
from pathlib import Path

from contextlib import contextmanager

from repro.api.registry import resolve_router
from repro.api.request import CompileRequest
from repro.api.result import CompileError, CompileResult
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.metrics import total_operations, two_qubit_gate_count
from repro.circuit.validation import check_connectivity, verify_routing
from repro.hardware.coupling import CouplingGraph
from repro.obs.trace import current_tracer

#: Pass execution order (also the key order of ``CompileResult.pass_timings``).
PASS_ORDER = ("load", "place", "route", "validate", "metrics")


def _annotate_phase(exc: BaseException, phase: str) -> None:
    """Stamp the failing pipeline phase onto an escaping exception.

    :meth:`CompileError.from_exception` reads the annotation when building
    the structured failure record, so a collected batch failure names the
    pass that died without the pipeline having to wrap every exception type.
    """
    if isinstance(exc, CompileError):
        exc.phase = phase
    elif getattr(exc, "_compile_phase", None) is None:
        try:
            exc._compile_phase = phase
        except Exception:
            pass  # extension or slotted exception types just skip the stamp


@contextmanager
def _cache_fault_window(cache_store, plan):
    """Attach a fault plan's cache faults to ``cache_store`` for one call."""
    if cache_store is None or plan is None or not plan.has_cache_faults():
        yield
        return
    previous = getattr(cache_store, "fault_plan", None)
    cache_store.fault_plan = plan
    try:
        yield
    finally:
        cache_store.fault_plan = previous


def load_circuit(
    circuit: QuantumCircuit | None = None,
    qasm: str | Path | None = None,
    generate: str | None = None,
) -> QuantumCircuit:
    """Materialise a circuit from one of the three request sources.

    Raises :class:`CompileError` with a one-line message on unreadable files,
    invalid QASM or unknown generator specs.
    """
    from repro.api.request import check_one_source

    try:
        check_one_source(circuit, qasm, generate)
    except ValueError as exc:
        raise CompileError(str(exc)) from exc
    if circuit is not None:
        return circuit
    if qasm is not None:
        from repro.qasm.lexer import QasmSyntaxError
        from repro.qasm.loader import load_qasm_file

        path = Path(qasm)
        try:
            return load_qasm_file(path)
        except OSError as exc:
            raise CompileError(f"cannot read QASM file {path}: {exc}") from exc
        except QasmSyntaxError as exc:
            raise CompileError(f"invalid QASM in {path}: {exc}") from exc
    from repro.benchgen.qasmbench import qasmbench_circuit

    family, _, qubits = str(generate).partition(":")
    try:
        return qasmbench_circuit(family, int(qubits or "20"))
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        raise CompileError(f"cannot generate {generate!r}: {message}") from exc


def resolve_backend(backend: str | CouplingGraph) -> CouplingGraph:
    """Resolve a backend name to its coupling graph (graphs pass through)."""
    if isinstance(backend, CouplingGraph):
        return backend
    from repro.hardware.backends import backend_by_name

    try:
        return backend_by_name(str(backend))
    except KeyError as exc:
        raise CompileError(exc.args[0] if exc.args else str(exc)) from exc


def compile(  # noqa: A001 - deliberate name
    request: CompileRequest,
    cache: "CompileCache | bool | None" = True,
    faults: "FaultPlan | str | None" = None,
) -> CompileResult:
    """Run the full pass pipeline for one request (cache-aware).

    ``cache`` is ``True`` (the process default in-memory cache), ``False`` /
    ``None`` (always recompute) or an explicit
    :class:`~repro.api.cache.CompileCache`.

    ``faults`` is the deterministic fault-injection harness
    (:class:`~repro.api.faults.FaultPlan` or its parse syntax): execution
    faults fire before the pipeline (attempt 0 -- single calls never retry;
    use :func:`repro.api.compile_many` for retry semantics) and cache faults
    are applied to the disk tier for the duration of this call.  ``None``
    (the default) injects nothing and costs nothing.
    """
    from repro.api.cache import request_fingerprint, resolve_cache
    from repro.api.faults import resolve_faults

    cache_store = resolve_cache(cache)
    plan = resolve_faults(faults)
    with _cache_fault_window(cache_store, plan):
        if cache_store is None:
            fingerprint = request_fingerprint(request) if plan is not None else None
            return run_attempt(request, plan, fingerprint)
        fingerprint = request_fingerprint(request)
        hit = cache_store.lookup(fingerprint, request)
        if hit is not None:
            return hit
        result = run_attempt(request, plan, fingerprint)
        cache_store.store(fingerprint, result)
        return result


def run_attempt(
    request: CompileRequest,
    plan: "FaultPlan | None",
    fingerprint: str | None,
    index: int | None = None,
    attempt: int = 0,
    in_worker: bool = False,
) -> CompileResult:
    """One attempt at a request: fire its execution faults, then compile it.

    The single fault-injection point shared by :func:`compile` and both
    transports of :func:`repro.api.compile_many`.  ``plan`` is ``None`` for
    a fault-free attempt; ``in_worker`` lets a ``kill`` fault hard-exit
    (only a disposable worker process may die).
    """
    if plan is not None:
        from repro.api.faults import apply_execution_faults

        apply_execution_faults(plan, fingerprint, index, attempt, in_worker=in_worker)
    return compile_uncached(request)


@contextmanager
def _timed_pass(timings: dict[str, float], tracer, name: str, **attributes):
    """Run one pass under its span and record its elapsed time in ``timings``.

    One measurement fills both: a recording tracer's span duration is the
    pass timing; under the no-op tracer a ``perf_counter`` pair stands in.
    """
    start = time.perf_counter()
    with tracer.span(name, **attributes) as active:
        yield active
    span = active.span
    timings[name] = time.perf_counter() - start if span is None else span.duration


def compile_uncached(request: CompileRequest) -> CompileResult:
    """Run the full pass pipeline for one request, bypassing every cache.

    Any escaping exception is annotated with the failing phase (``request``,
    ``load``, ``place``, ``route``, ``validate`` or ``metrics``) so the
    batch driver's structured failure records name the pass that died.
    """
    phase = "request"
    try:
        try:
            request.check()
        except ValueError as exc:
            raise CompileError(str(exc)) from exc
        timings: dict[str, float] = {}

        # Tracing is observational only: the disabled path pays one
        # thread-local read plus no-op context managers.
        tracer = current_tracer()
        with tracer.span("compile", seed=request.seed) as compile_span:
            phase = "load"
            with _timed_pass(timings, tracer, "load"):
                circuit = load_circuit(request.circuit, request.qasm, request.generate)
                coupling = resolve_backend(request.backend)

            phase = "place"
            with _timed_pass(timings, tracer, "place", placement=request.placement):
                layout = _place(request, circuit, coupling)

            phase = "route"
            spec = resolve_router(request.router)
            router = spec.make(coupling, seed=request.seed, config=request.router_config)
            with _timed_pass(timings, tracer, "route", router=spec.name) as route_span:
                routing = router.run(circuit, layout)
                if tracer.enabled:
                    route_span.update(
                        {
                            "swaps": routing.swaps_added,
                            "routed_depth": routing.routed_depth,
                            "cost_evaluations": routing.cost_evaluations,
                        }
                    )

            phase = "validate"
            with _timed_pass(timings, tracer, "validate", mode=request.validation):
                if request.validation == "connectivity":
                    check_connectivity(routing.routed_circuit, coupling.edges())
                elif request.validation == "full":
                    verify_routing(
                        circuit,
                        routing.routed_circuit,
                        coupling.edges(),
                        routing.initial_layout,
                    )

            phase = "metrics"
            with _timed_pass(timings, tracer, "metrics"):
                metrics = _metrics(request, circuit, coupling, spec.name, routing, timings)

            if tracer.enabled:
                compile_span.update(
                    {
                        "router": spec.name,
                        "backend": coupling.name,
                        "circuit": request.label or circuit.name,
                        "num_qubits": circuit.num_qubits,
                        "num_gates": len(circuit),
                    }
                )

        return CompileResult(
            request=request,
            routing=routing,
            router=spec.name,
            backend_name=coupling.name,
            circuit_name=request.label or circuit.name,
            pass_timings=timings,
            metrics=metrics,
        )
    except Exception as exc:
        _annotate_phase(exc, phase)
        raise


def _place(request: CompileRequest, circuit: QuantumCircuit, coupling: CouplingGraph):
    from repro.core.placement import initial_layout

    try:
        return initial_layout(
            circuit, coupling, request.placement, **request.placement_options
        )
    except KeyError as exc:
        raise CompileError(exc.args[0] if exc.args else str(exc)) from exc
    except ValueError as exc:
        raise CompileError(f"placement failed: {exc}") from exc


def _metrics(
    request: CompileRequest,
    circuit: QuantumCircuit,
    coupling: CouplingGraph,
    router_name: str,
    routing,
    timings: dict[str, float],
) -> dict:
    return {
        "circuit": request.label or circuit.name,
        "backend": coupling.name,
        "router": router_name,
        "seed": request.seed,
        "num_qubits": circuit.num_qubits,
        "num_gates": len(circuit),
        "qops": total_operations(circuit),
        "two_qubit_gates": two_qubit_gate_count(circuit),
        "initial_depth": routing.original_depth,
        "swaps": routing.swaps_added,
        "routed_depth": routing.routed_depth,
        "depth_overhead": routing.depth_overhead,
        "cost_evaluations": routing.cost_evaluations,
        "runtime_seconds": round(timings["route"], 6),
    }
