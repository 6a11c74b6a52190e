"""Tests for the parallel batch driver :func:`repro.api.compile_many`."""

import os
import time

import pytest

from repro.api import (
    CompileCache,
    CompileRequest,
    FaultPlan,
    compile as api_compile,
    compile_many,
    compile_sweep,
    deterministic_backoff,
    request_fingerprint,
    router_names,
    sweep_requests,
)
from repro.benchgen.qasmbench import ghz_circuit, qft_circuit
from repro.hardware.topologies import grid_topology
from repro.obs.trace import Tracer, use_tracer

GRID = grid_topology(4, 4)


def gates_of(circuit):
    return [(g.name, g.qubits, g.params) for g in circuit]


def batch_requests():
    """A mixed workload: every router x two circuits x two seeds."""
    circuits = [ghz_circuit(10), qft_circuit(7)]
    return [
        CompileRequest(circuit=circuit, backend=GRID, router=router, seed=seed)
        for router in router_names()
        for circuit in circuits
        for seed in (0, 3)
    ]


class TestDeterminism:
    """Worker-count independence of the *computation* itself.

    These tests run with ``cache=False``: with the default cache on, the
    second ``compile_many`` call would be answered entirely from the store
    and never exercise the process pool (warm-vs-cold equivalence has its
    own dedicated battery in ``tests/api/test_cache.py``).
    """

    def test_parallel_matches_serial_bit_for_bit(self):
        requests = batch_requests()
        serial = compile_many(requests, workers=1, cache=False)
        parallel = compile_many(requests, workers=4, cache=False)
        assert len(serial) == len(parallel) == len(requests)
        for left, right in zip(serial, parallel):
            assert left.router == right.router
            assert left.request.seed == right.request.seed
            assert gates_of(left.routed_circuit) == gates_of(right.routed_circuit)
            assert left.routing.final_layout == right.routing.final_layout

    def test_parallel_matches_individual_compile_calls(self):
        requests = batch_requests()[:6]
        batch = compile_many(requests, workers=3, cache=False)
        for request, result in zip(requests, batch):
            direct = api_compile(request, cache=False)
            assert gates_of(result.routed_circuit) == gates_of(direct.routed_circuit)

    def test_result_order_matches_request_order(self):
        requests = [
            CompileRequest(circuit=ghz_circuit(8), backend=GRID, router=router)
            for router in ("tket", "sabre", "greedy", "cirq")
        ]
        batch = compile_many(requests, workers=2)
        assert [r.router for r in batch] == ["tket", "sabre", "greedy", "cirq"]


class TestAggregation:
    def test_batch_result_summary(self):
        requests = [
            CompileRequest(circuit=ghz_circuit(8), backend=GRID, router="sabre", seed=s)
            for s in range(3)
        ]
        batch = compile_many(requests, workers=1)
        summary = batch.summary()
        assert summary["requests"] == 3
        assert summary["workers"] == 1
        assert summary["routers"]["sabre"]["runs"] == 3
        assert summary["wall_seconds"] >= 0
        assert batch.total_route_seconds > 0

    def test_per_router_grouping(self):
        requests = batch_requests()
        batch = compile_many(requests, workers=1)
        table = batch.per_router()
        assert set(table) == set(router_names())
        for stats in table.values():
            assert stats["runs"] == 4  # two circuits x two seeds

    def test_workers_capped_to_request_count(self):
        batch = compile_many(
            [CompileRequest(circuit=ghz_circuit(6), backend=GRID, router="greedy")],
            workers=8,
        )
        assert batch.workers == 1

    def test_empty_batch(self):
        batch = compile_many([], workers=4)
        assert len(batch) == 0
        assert batch.per_router() == {}


class TestWorkerValidation:
    """Regression: bad worker counts must fail loudly, not hang or serialise."""

    @pytest.mark.parametrize("workers", [0, -1, -8])
    def test_non_positive_workers_raise_value_error(self, workers):
        requests = [
            CompileRequest(circuit=ghz_circuit(6), backend=GRID, router="greedy")
        ]
        with pytest.raises(ValueError, match="workers must be at least 1"):
            compile_many(requests, workers=workers)

    def test_oversized_worker_count_is_clamped_and_deterministic(self):
        # container is single-core: this checks determinism and the clamp,
        # not wall-clock speedup
        requests = [
            CompileRequest(
                circuit=ghz_circuit(8), backend=GRID, router="greedy", seed=s
            )
            for s in range(3)
        ]
        batch = compile_many(requests, workers=64, cache=False)
        assert batch.workers == len(requests)
        serial = compile_many(requests, workers=1, cache=False)
        for left, right in zip(batch, serial):
            assert gates_of(left.routed_circuit) == gates_of(right.routed_circuit)


class TestSweep:
    def test_sweep_requests_cross_product_is_deterministic(self):
        base = CompileRequest(circuit=ghz_circuit(6), backend=GRID, router="sabre")
        requests = sweep_requests(base, routers=("sabre", "tket"), seeds=range(3))
        assert [(r.router, r.seed) for r in requests] == [
            ("sabre", 0), ("sabre", 1), ("sabre", 2),
            ("tket", 0), ("tket", 1), ("tket", 2),
        ]

    def test_sweep_accepts_one_shot_iterators(self):
        # regression: a generator for seeds must not be exhausted by the
        # first router, silently dropping the rest of the cross product
        base = CompileRequest(circuit=ghz_circuit(6), backend=GRID, router="sabre")
        requests = sweep_requests(
            base, routers=("sabre", "tket"), seeds=(s for s in (0, 1))
        )
        assert len(requests) == 4

    def test_sweep_over_circuits(self):
        base = CompileRequest(generate="ghz:6", backend=GRID, router="greedy")
        circuits = [ghz_circuit(4), qft_circuit(4)]
        requests = sweep_requests(base, circuits=circuits)
        assert all(r.generate is None and r.circuit is not None for r in requests)
        assert len(requests) == 2

    def test_worker_error_propagates(self):
        requests = [
            CompileRequest(circuit=ghz_circuit(6), backend=GRID, router="nope")
        ] * 3
        with pytest.raises(KeyError):
            compile_many(requests, workers=2)


class TestCompileSweep:
    """Regression coverage for :func:`repro.api.compile_sweep` itself (the
    expansion helper is tested above; the driver wrapper was untested)."""

    BASE_KWARGS = dict(routers=("sabre", "tket"), seeds=(0, 1, 2))

    def base(self):
        return CompileRequest(circuit=ghz_circuit(8), backend=GRID, router="greedy")

    def test_sweep_expansion_order_and_request_count(self):
        batch = compile_sweep(self.base(), **self.BASE_KWARGS, cache=False)
        assert len(batch) == 6
        assert [(r.router, r.request.seed) for r in batch] == [
            ("sabre", 0), ("sabre", 1), ("sabre", 2),
            ("tket", 0), ("tket", 1), ("tket", 2),
        ]

    def test_sweep_matches_hand_built_compile_many_input(self):
        sweep = compile_sweep(self.base(), **self.BASE_KWARGS, cache=False)
        hand_built = compile_many(
            sweep_requests(self.base(), **self.BASE_KWARGS), workers=1, cache=False
        )
        assert len(sweep) == len(hand_built)
        for left, right in zip(sweep, hand_built):
            assert left.request == right.request
            assert gates_of(left.routed_circuit) == gates_of(right.routed_circuit)
            assert left.routing.final_layout == right.routing.final_layout

    def test_sweep_over_circuit_list(self):
        circuits = [ghz_circuit(6), qft_circuit(5)]
        batch = compile_sweep(
            self.base(), routers=("greedy",), circuits=circuits, cache=False
        )
        assert [r.circuit_name for r in batch] == [c.name for c in circuits]

    def test_sweep_passes_cache_through(self):
        cache = CompileCache()
        cold = compile_sweep(self.base(), **self.BASE_KWARGS, cache=cache)
        warm = compile_sweep(self.base(), **self.BASE_KWARGS, cache=cache)
        assert cold.cache_misses == 6 and warm.cache_hits == 6
        for left, right in zip(cold, warm):
            assert gates_of(left.routed_circuit) == gates_of(right.routed_circuit)



def greedy_requests(count):
    return [
        CompileRequest(circuit=ghz_circuit(6), backend=GRID, router="greedy", seed=s)
        for s in range(count)
    ]


class TestTransports:
    """The attempt loop's two transports: inline and persistent workers."""

    def test_process_workers_persist_across_requests(self):
        tracer = Tracer()
        with use_tracer(tracer):
            compile_many(greedy_requests(6), workers=2, cache=False)
        pids = {span.pid for span in tracer.spans if span.name == "request"}
        # six requests served by at most two long-lived workers, never inline
        assert 1 <= len(pids) <= 2
        assert os.getpid() not in pids

    def test_single_worker_batch_runs_inline(self):
        tracer = Tracer()
        with use_tracer(tracer):
            compile_many(greedy_requests(2), workers=1, cache=False)
        assert {span.pid for span in tracer.spans} == {os.getpid()}

    def test_retry_waits_out_its_backoff_on_worker_processes(self):
        requests = greedy_requests(3)
        plan = FaultPlan().inject(0, "exception", attempt=0)
        start = time.perf_counter()
        batch = compile_many(
            requests, workers=2, cache=False, retries=1, backoff=0.2, faults=plan
        )
        elapsed = time.perf_counter() - start
        assert batch.ok
        assert elapsed >= deterministic_backoff(
            request_fingerprint(requests[0]), 1, 0.2
        )

    def test_cached_slots_name_the_hits(self):
        cache = CompileCache()
        requests = greedy_requests(3)
        api_compile(requests[1], cache=cache)
        batch = compile_many(requests, workers=2, cache=cache)
        assert batch.cached_slots == {1}
        assert (batch.cache_hits, batch.cache_misses) == (1, 2)
