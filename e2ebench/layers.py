"""Per-layer metrics of a traced run.

Pipeline and kernel numbers come from the spans and ``kernel.*`` counters
that ``repro.obs`` already emits.  The other layers are timed here, around
the benchmark's own calls into them, as spans of the run's tracer, so every
per-layer number can be opened in Perfetto next to the pipeline passes.
"""

from __future__ import annotations

from repro.affine.dependence import DependenceAnalysis
from repro.api import (
    CompileCache,
    request_fingerprint,
    request_from_payload,
    request_to_payload,
    result_from_payload,
    result_to_payload,
)
from repro.qasm.loader import circuit_from_qasm

from workloads import BASELINE_ROUTERS

PASSES = ("load", "place", "route", "validate", "metrics")
ROUTERS = ("qlosure",) + BASELINE_ROUTERS
KERNEL_COUNTERS = (
    "cost_evaluations",
    "front_rebuilds",
    "candidate_builds",
    "heuristic_cache_hits",
    "swaps_applied",
)

#: Every per-layer metric: name -> unit.  A layer a workload does not
#: exercise reports 0 (for example ``route_s.qmap`` on ``qlosure-cold``).
UNITS = {
    **{f"pipeline.{name}_s": "s" for name in PASSES},
    "pipeline.pass_coverage_ratio": "ratio",
    **{f"route_s.{router}": "s" for router in ROUTERS},
    **{f"cost_evals.{router}": "count" for router in ROUTERS},
    **{f"routing.{name}": "count" for name in KERNEL_COUNTERS},
    "routing.cost_evals_per_swap": "ratio",
    "routing.window_reuse_ratio": "ratio",
    "affine.weights_s": "s",
    "hardware.distance_table_s": "s",
    "benchgen.generate_s": "s",
    "serialize.request_decode_s": "s",
    "serialize.result_encode_s": "s",
    "serialize.result_decode_s": "s",
    "qasm.gates_per_s": "1/s",
    "cache.fingerprint_s": "s",
    "cache.memory_hit_s": "s",
    "cache.disk_hit_s": "s",
    "cache.store_s": "s",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "serve.hit_latency_p50_ms": "ms",
    "serve.miss_latency_p50_ms": "ms",
    "serve.queue_wait_s": "s",
    "serve.exec_s": "s",
    "serve.rejected": "count",
    "serve.coalesced": "count",
    "obs.trace_overhead_ratio": "ratio",
}


def self_times(spans) -> dict:
    """Span id -> duration minus the part its direct children cover."""
    child_time: dict = {}
    for span in spans:
        if span.parent_id is not None:
            child_time[span.parent_id] = child_time.get(span.parent_id, 0.0) + span.duration
    return {span.span_id: span.duration - child_time.get(span.span_id, 0.0) for span in spans}


def span_total(spans, name: str) -> float:
    return sum(span.duration for span in spans if span.name == name)


def pipeline_metrics(spans, counters: dict) -> dict:
    """Pass self times, per-router routing, kernel counters and coverage."""
    own = self_times(spans)
    metrics = {f"pipeline.{name}_s": 0.0 for name in PASSES}
    metrics.update({f"route_s.{router}": 0.0 for router in ROUTERS})
    metrics.update({f"cost_evals.{router}": 0 for router in ROUTERS})
    for span in spans:
        if span.name in PASSES:
            metrics[f"pipeline.{span.name}_s"] += own[span.span_id]
        if span.name == "route":
            router = span.attributes.get("router")
            metrics[f"route_s.{router}"] += own[span.span_id]
            metrics[f"cost_evals.{router}"] += int(span.attributes.get("cost_evaluations", 0))
    compile_s = span_total(spans, "compile")
    passes = sum(metrics[f"pipeline.{name}_s"] for name in PASSES)
    metrics["pipeline.pass_coverage_ratio"] = passes / compile_s if compile_s else 0.0
    kernel = {name: int(counters.get(f"kernel.{name}", 0)) for name in KERNEL_COUNTERS}
    metrics.update({f"routing.{name}": value for name, value in kernel.items()})
    swaps = kernel["swaps_applied"]
    metrics["routing.cost_evals_per_swap"] = kernel["cost_evaluations"] / swaps if swaps else 0.0
    metrics["routing.window_reuse_ratio"] = kernel["heuristic_cache_hits"] / swaps if swaps else 0.0
    return metrics


def codec_metrics(tracer, requests, results, cache_dir) -> dict:
    """Time the affine, serialize, qasm and cache layers on a workload's payloads.

    ``requests`` and ``results`` are the workload's distinct requests and
    their results, in the same order.  Each call is one span of ``tracer``;
    a metric is the summed duration of its spans.
    """
    for request in requests:
        with tracer.span("affine.weights"):
            DependenceAnalysis(request.circuit).weights()
    wire = [request_to_payload(request) for request in requests]
    for payload in wire:
        with tracer.span("serialize.request_decode"):
            request_from_payload(payload)
    payloads = []
    for result in results:
        with tracer.span("serialize.result_encode"):
            payloads.append(result_to_payload(result))
    for payload, request in zip(payloads, requests):
        with tracer.span("serialize.result_decode"):
            result_from_payload(payload, request)
    gates = 0
    for payload in payloads:
        with tracer.span("qasm.parse"):
            gates += len(circuit_from_qasm(payload["routing"]["routed_circuit"]["qasm"]))
    fingerprints = []
    for request in requests:
        with tracer.span("cache.fingerprint"):
            fingerprints.append(request_fingerprint(request))
    writer = CompileCache(directory=cache_dir)
    for fingerprint, result in zip(fingerprints, results):
        with tracer.span("cache.store"):
            writer.store(fingerprint, result)
    reader = CompileCache(directory=cache_dir, readonly=True)
    for tier in ("disk_hit", "memory_hit"):
        for fingerprint, request in zip(fingerprints, requests):
            with tracer.span(f"cache.{tier}"):
                if reader.lookup(fingerprint, request) is None:
                    raise RuntimeError(f"cache.{tier}: stored entry not found")
    spans = tracer.spans
    return {
        "affine.weights_s": span_total(spans, "affine.weights"),
        "serialize.request_decode_s": span_total(spans, "serialize.request_decode"),
        "serialize.result_encode_s": span_total(spans, "serialize.result_encode"),
        "serialize.result_decode_s": span_total(spans, "serialize.result_decode"),
        "qasm.gates_per_s": gates / span_total(spans, "qasm.parse"),
        "cache.fingerprint_s": span_total(spans, "cache.fingerprint"),
        "cache.store_s": span_total(spans, "cache.store"),
        "cache.disk_hit_s": span_total(spans, "cache.disk_hit"),
        "cache.memory_hit_s": span_total(spans, "cache.memory_hit"),
    }
