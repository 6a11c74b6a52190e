"""The cold workloads: one closed-loop caller of ``repro.api.compile``.

Every call is ``compile(request, cache=False)`` on an in-memory circuit, so
each sample is a full load -> place -> route -> validate -> metrics run.
The request list runs in whole passes, so every distinct request is sampled
equally often.
"""

from __future__ import annotations

import time

from repro.api import compile
from repro.obs.trace import Tracer, use_tracer

import hostspeed
from checker import result_digest
from workloads import MIN_SAMPLES


def run_passes(requests: list, seconds: float, summarize) -> tuple[list, dict]:
    """Run whole passes until ``seconds`` have passed and :data:`MIN_SAMPLES`
    samples exist.

    Returns ``(samples, firsts)``.  A sample is ``(index, seconds, host-speed
    scale, routed digest or exception)`` with ``index`` the request's
    position in the list; ``firsts[index]`` is ``summarize(request, result)``
    of the request's first result.  No result outlives its sample, so memory
    does not grow with the run.
    """
    samples, firsts = [], {}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(samples) < MIN_SAMPLES:
        for index, request in enumerate(requests):
            before = hostspeed.kernel_seconds()
            begin = time.perf_counter()
            try:
                outcome = compile(request, cache=False)
            except Exception as exc:  # a failed request is counted, not fatal
                outcome = exc
            elapsed = time.perf_counter() - begin
            factor = hostspeed.scale(before, hostspeed.kernel_seconds())
            if not isinstance(outcome, Exception):
                if index not in firsts:
                    firsts[index] = summarize(request, outcome)
                outcome = result_digest(outcome)
            samples.append((index, elapsed, factor, outcome))
    return samples, firsts


def traced_pass(requests: list, tracer: Tracer) -> tuple[list, float, float]:
    """One pass with each request run untraced and traced, in alternating order.

    Returns ``(outcomes, untraced seconds, traced seconds)`` where
    ``outcomes[i]`` is the ``(untraced, traced)`` outcome pair of request
    ``i``.  Each traced call runs under ``tracer`` in a ``bench.request`` span.
    """
    outcomes = []
    untraced_s = traced_s = 0.0
    for index, request in enumerate(requests):
        pair = [None, None]
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            begin = time.perf_counter()
            try:
                if traced:
                    with use_tracer(tracer), tracer.span("bench.request", index=index):
                        outcome = compile(request, cache=False)
                else:
                    outcome = compile(request, cache=False)
            except Exception as exc:
                outcome = exc
            elapsed = time.perf_counter() - begin
            pair[traced] = outcome
            if traced:
                traced_s += elapsed
            else:
                untraced_s += elapsed
        outcomes.append(tuple(pair))
    return outcomes, untraced_s, traced_s
