"""Batch driver: compile a list of requests through one attempt loop.

:func:`compile_many` is the harness-facing entry point for routing many
circuits.  Results are bit-for-bit identical to running
:func:`repro.api.compile` serially over the same requests because every
request carries its own seed and routing has no cross-request state; the
driver only changes *where* each request runs, never *what* it computes.
Result order always matches request order regardless of worker scheduling.

The driver is cache-aware: requests are fingerprinted up front and partitioned
into hits and misses against the content-addressed cache
(:mod:`repro.api.cache`), only the misses are scheduled, and the miss results
are stored back in the parent process (worker processes never own a cache,
so nothing is populated into fork-copied stores that die with them).  Hits
slot back into their original positions, so a warm-cache batch is
positionally and bit-for-bit identical to a cold serial run.

Every miss goes through one attempt loop, which owns the failure contract:
under ``on_error="collect"`` a failing request is recorded as a structured
:class:`~repro.api.result.CompileError` in its original batch slot instead
of aborting its siblings; ``retries`` re-runs failed attempts on a
deterministic seeded backoff schedule
(:func:`~repro.api.faults.deterministic_backoff` -- a pure function of the
request fingerprint and attempt number, never wall-clock jitter); and every
attempt runs under a ``request`` span carrying its ``index`` and
``attempt``.  The :class:`~repro.api.faults.FaultPlan` harness injects
exceptions, delays, worker kills and cache corruption at deterministic
(fingerprint, attempt) points so every recovery path is testable and
replayable.

The loop hands each attempt to one of two transports:

* the **inline** transport runs it in the calling process.  It serves
  batches that need one worker, no ``timeout`` and no kill faults;
* the **process** transport keeps ``pool_size`` long-lived forked workers
  (they inherit the warm interpreter instead of re-importing the package),
  each serving one attempt at a time over a pipe.  The loop sleeps on the
  worker pipes and process sentinels until the nearest deadline or backoff
  end.  A worker that overruns ``timeout`` or dies is terminated, reaped and
  replaced, so a hung or killed request never touches its siblings.

Either transport records each attempt into a child tracer, and the loop
stitches the fragments back in request order, so a traced batch has the
same span sequence for every transport and worker count.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as wait_for_ready
from typing import Iterable, NamedTuple

from repro.api.faults import FaultPlan, deterministic_backoff
from repro.api.pipeline import _cache_fault_window, run_attempt
from repro.api.request import CompileRequest
from repro.api.result import BatchResult, CompileError, CompileResult
from repro.obs.trace import (
    NULL_TRACER,
    TraceContext,
    Tracer,
    current_tracer,
    use_tracer,
)

#: Recognised per-request failure policies.
ON_ERROR_POLICIES = ("raise", "collect")


def default_workers() -> int:
    """A sensible worker count for this machine (at least 1)."""
    return max(1, (os.cpu_count() or 2) - 1)


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _check_batch_options(workers, timeout, retries, backoff, on_error) -> tuple:
    """Validate the fault-tolerance arguments; raise ``ValueError`` early.

    Returns the normalized ``(workers, timeout, retries, backoff)`` tuple.
    Bad values fail loudly *before* any work is scheduled -- a batch must
    never be half-run on arguments that were silently coerced.
    """
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if timeout is not None:
        try:
            timeout = float(timeout)
        except (TypeError, ValueError):
            raise ValueError(
                f"timeout must be a positive number of seconds or None, "
                f"got {timeout!r}"
            ) from None
        if not timeout > 0:
            raise ValueError(
                f"timeout must be a positive number of seconds or None, got {timeout!r}"
            )
    try:
        retries = int(retries)
    except (TypeError, ValueError):
        raise ValueError(
            f"retries must be a non-negative integer, got {retries!r}"
        ) from None
    if retries < 0:
        raise ValueError(f"retries must be a non-negative integer, got {retries}")
    try:
        backoff = float(backoff)
    except (TypeError, ValueError):
        raise ValueError(
            f"backoff must be a non-negative number of seconds, got {backoff!r}"
        ) from None
    if backoff < 0:
        raise ValueError(
            f"backoff must be a non-negative number of seconds, got {backoff}"
        )
    if on_error not in ON_ERROR_POLICIES:
        raise ValueError(
            f"on_error must be one of {ON_ERROR_POLICIES}, got {on_error!r}"
        )
    return workers, timeout, retries, backoff


class _Done(NamedTuple):
    """One finished attempt, as a transport hands it back to the loop."""

    index: int
    attempt: int
    #: The attempt's result, or its structured failure.
    value: CompileResult | CompileError
    #: The request's own exception, for the raw-error contract (``None`` for
    #: successes, crashes and timeouts).
    raw: BaseException | None = None
    #: ``(spans, counters)`` the attempt recorded, when tracing.
    trace: tuple | None = None


@dataclass(frozen=True)
class _Work:
    """What every attempt of one batch needs; forked workers inherit it."""

    requests: list
    fingerprints: list  # content addresses, or ``None`` where not computed
    plan: FaultPlan | None
    trace_ctx: TraceContext | None  # ``None`` when the batch is not traced

    def serve(self, index: int, attempt: int, in_worker: bool) -> _Done:
        """Run one attempt under its ``request`` span, in a child tracer.

        Never raises: a failure comes back as a structured
        :class:`CompileError` plus the request's own exception.
        """
        traced = self.trace_ctx is not None
        tracer = Tracer(context=self.trace_ctx) if traced else NULL_TRACER
        raw = None
        with use_tracer(tracer):
            try:
                with tracer.span("request", index=index, attempt=attempt):
                    value = run_attempt(
                        self.requests[index],
                        self.plan,
                        self.fingerprints[index],
                        index,
                        attempt,
                        in_worker,
                    )
            except Exception as exc:
                value = CompileError.from_exception(exc, attempts=attempt + 1)
                raw = exc
        trace = (tracer.spans, tracer.counters) if traced else None
        return _Done(index, attempt, value, raw, trace)


# ---------------------------------------------------------------------------
# Transports: ``start`` an attempt, ``wait`` for finished ones, ``close``
# ---------------------------------------------------------------------------


class _InlineTransport:
    """Runs each attempt in the calling process, one at a time."""

    size = 1

    def __init__(self, work: _Work):
        self.work = work
        self.finished: list[_Done] = []

    def start(self, index: int, attempt: int) -> None:
        self.finished.append(self.work.serve(index, attempt, in_worker=False))

    def wait(self, until: float | None) -> list[_Done]:
        if not self.finished and until is not None:
            time.sleep(max(0.0, until - time.monotonic()))
        finished, self.finished = self.finished, []
        return finished

    def close(self) -> None:
        pass


def _worker_main(conn, parent_end, work: _Work) -> None:
    """Body of one persistent worker: serve ``(index, attempt)`` jobs until EOF.

    The request's own exception travels pickled next to its structured
    :class:`CompileError` (``None`` when it does not pickle).  A ``kill``
    fault hard-exits; the parent sees the dead process and records a crash.
    """
    parent_end.close()  # so a parent that dies without a goodbye reads as EOF
    while True:
        try:
            index, attempt = conn.recv()
        except EOFError:
            return
        done = work.serve(index, attempt, in_worker=True)
        try:
            raw = None if done.raw is None else pickle.dumps(done.raw)
        except Exception:
            raw = None
        conn.send(done._replace(raw=raw))


@dataclass
class _Worker:
    process: object
    conn: object
    job: tuple[int, int] = (0, 0)
    deadline: float | None = None  # monotonic time the running attempt must end by


class _ProcessTransport:
    """``size`` long-lived forked workers, each serving one attempt at a time."""

    def __init__(self, size: int, timeout: float | None, work: _Work):
        self.size = size
        self.timeout = timeout
        self.work = work
        self.context = _mp_context()
        self.idle: list[_Worker] = []
        self.busy: list[_Worker] = []

    def start(self, index: int, attempt: int) -> None:
        worker = self.idle.pop() if self.idle else self._spawn()
        try:
            worker.conn.send((index, attempt))
        except OSError:  # the worker died while idle: replace it
            self._stop(worker)
            worker = self._spawn()
            worker.conn.send((index, attempt))
        worker.job = (index, attempt)
        if self.timeout is not None:
            worker.deadline = time.monotonic() + self.timeout
        self.busy.append(worker)

    def _spawn(self) -> _Worker:
        conn, child_conn = self.context.Pipe()
        process = self.context.Process(
            target=_worker_main,
            args=(child_conn, conn, self.work),
            daemon=True,
        )
        process.start()
        child_conn.close()  # the parent keeps one end only: EOF == worker gone
        return _Worker(process, conn)

    def wait(self, until: float | None) -> list[_Done]:
        """Sleep until a busy worker replies, dies or overruns, or ``until``."""
        wakeups = [w.deadline for w in self.busy if w.deadline is not None]
        if until is not None:
            wakeups.append(until)
        timeout = max(0.0, min(wakeups) - time.monotonic()) if wakeups else None
        wait_for_ready(
            [worker.conn for worker in self.busy]
            + [worker.process.sentinel for worker in self.busy],
            timeout,
        )
        finished = []
        for worker in list(self.busy):
            done = self._poll(worker)
            if done is not None:
                self.busy.remove(worker)
                finished.append(done)
        return finished

    def _poll(self, worker: _Worker) -> _Done | None:
        """The finished attempt of a busy worker, or ``None`` while it runs."""
        index, attempt = worker.job
        if worker.conn.poll():
            try:
                done = worker.conn.recv()
            except (EOFError, OSError):
                pass  # the pipe closed mid-reply: the worker crashed
            else:
                self.idle.append(worker)
                try:
                    raw = None if done.raw is None else pickle.loads(done.raw)
                except Exception:
                    raw = None
                return done._replace(raw=raw)
        elif worker.process.is_alive():
            if worker.deadline is None or time.monotonic() < worker.deadline:
                return None
            self._stop(worker)
            return _Done(
                index,
                attempt,
                CompileError(
                    f"request timed out after {self.timeout:g}s (attempt {attempt})",
                    phase="worker",
                    exc_type="Timeout",
                    attempts=attempt + 1,
                ),
            )
        exitcode = self._stop(worker)
        return _Done(
            index,
            attempt,
            CompileError(
                f"worker process died with exit code {exitcode} (attempt {attempt})",
                phase="worker",
                exc_type="WorkerCrash",
                attempts=attempt + 1,
            ),
        )

    @staticmethod
    def _stop(worker: _Worker) -> int | None:
        """Terminate (if still running), reap and disconnect one worker."""
        worker.process.terminate()
        worker.process.join(5)
        worker.conn.close()
        return worker.process.exitcode

    def close(self) -> None:
        for worker in self.idle + self.busy:
            self._stop(worker)


# ---------------------------------------------------------------------------
# The attempt loop
# ---------------------------------------------------------------------------


class _AttemptLoop:
    """Schedules, retries and finalises every miss over one transport."""

    def __init__(self, work: _Work, record, *, retries, backoff, on_error, raw_errors):
        self.work = work
        self.record = record  # callback(index, outcome) filling the batch slot
        self.retries = retries
        self.backoff = backoff
        self.on_error = on_error
        #: Re-raise the request's own exception instead of a CompileError.
        self.raw_errors = raw_errors
        self.tracer = current_tracer()

    def run(self, misses: list[int], transport) -> None:
        # (ready_at, index, attempt): first attempts are ready at once and
        # start in request order; retries wait out their backoff.
        waiting = [(0.0, index, 0) for index in misses]
        running = 0
        fragments: dict[int, list] = {}
        try:
            while waiting or running:
                now = time.monotonic()
                while waiting and running < transport.size and waiting[0][0] <= now:
                    _, index, attempt = heapq.heappop(waiting)
                    transport.start(index, attempt)
                    running += 1
                until = waiting[0][0] if waiting and running < transport.size else None
                for done in transport.wait(until):
                    running -= 1
                    if done.trace is not None:
                        fragments.setdefault(done.index, []).append(done.trace)
                    self._settle(done, waiting)
        finally:
            transport.close()
            # Stitch in request order, so the span sequence is the same for
            # every transport, worker count and arrival order.
            for index in sorted(fragments):
                for spans, counters in fragments[index]:
                    self.tracer.extend(spans, counters)

    def _settle(self, done: _Done, waiting: list) -> None:
        if done.value.ok:
            self.record(done.index, done.value)
        elif done.attempt < self.retries:
            # Backoff is seeded on the request's content address where known
            # (stable across runs and batch positions), else its batch index.
            seed_key = self.work.fingerprints[done.index] or f"request-{done.index}"
            attempt = done.attempt + 1
            ready_at = time.monotonic() + deterministic_backoff(
                seed_key, attempt, self.backoff
            )
            heapq.heappush(waiting, (ready_at, done.index, attempt))
        else:
            error = done.value
            error.request = self.work.requests[done.index]
            if self.on_error == "collect":
                self.record(done.index, error)
            elif self.raw_errors and done.raw is not None:
                raise done.raw
            else:
                raise error


# ---------------------------------------------------------------------------
# The public driver
# ---------------------------------------------------------------------------


def compile_many(
    requests: Iterable[CompileRequest],
    workers: int = 1,
    cache=True,
    on_error: str = "raise",
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.0,
    faults=None,
) -> BatchResult:
    """Compile every request through one attempt loop over ``workers``.

    ``workers`` must be at least 1; the count is clamped to the number of
    requests (extra workers would only sit idle) and zero or negative counts
    raise :class:`ValueError` instead of being silently serialised.  The
    misses run on the inline transport (in this process) when one worker
    suffices, no ``timeout`` is set and no kill fault is planned; otherwise
    on up to ``workers`` persistent forked worker processes.  Per-request
    seeding is deterministic -- each request's seed is fixed before
    scheduling -- so the routed circuits are identical for every worker
    count and transport.

    ``cache`` is ``True`` (the process default cache), ``False`` / ``None``
    (compile everything) or an explicit
    :class:`~repro.api.cache.CompileCache`; cache hits are filled in the
    parent process, only the misses are scheduled, and
    ``BatchResult.cached_slots`` names the hit positions.

    Fault tolerance (all arguments validated up front; bad values raise
    :class:`ValueError` before any work is scheduled):

    * ``on_error`` -- ``"raise"`` (default) aborts on the first failing
      request; ``"collect"`` records each failure as a structured
      :class:`~repro.api.result.CompileError` in its original batch slot and
      keeps compiling the siblings.  Under ``"raise"`` with no timeout,
      retries or faults the request's own exception propagates unchanged
      (from a worker too, when it pickles); every other failure raises a
      :class:`~repro.api.result.CompileError`.
    * ``timeout`` -- per-request wall-clock bound in seconds (per attempt);
      enforcing it needs a separate process, so a timeout always selects the
      process transport, whose hung worker is terminated and replaced.
    * ``retries`` -- extra attempts per failed request (``retries=2`` means
      up to 3 attempts), spaced by the deterministic seeded backoff schedule
      ``backoff * 2**(attempt-1) * jitter(fingerprint, attempt)``.
    * ``faults`` -- a :class:`~repro.api.faults.FaultPlan` (or its parse
      syntax) injecting exceptions, delays, worker kills and cache faults at
      deterministic (request, attempt) points.

    Successful results are bit-for-bit identical to a clean serial run
    regardless of worker count, timeouts, retries or faults injected into
    *other* requests -- each result is a pure function of its request.
    """
    from repro.api.cache import request_fingerprint, resolve_cache
    from repro.api.faults import resolve_faults

    workers, timeout, retries, backoff = _check_batch_options(
        workers, timeout, retries, backoff, on_error
    )
    plan = resolve_faults(faults)
    requests = list(requests)
    cache_store = resolve_cache(cache)
    start = time.perf_counter()
    tracer = current_tracer()

    results: list[CompileResult | CompileError | None] = [None] * len(requests)
    fingerprints: list[str | None] = [None] * len(requests)
    misses: list[int] = []
    with tracer.span(
        "batch", requests=len(requests), workers=workers
    ) as batch_span, _cache_fault_window(cache_store, plan):
        for index, request in enumerate(requests):
            if cache_store is not None or plan is not None:
                # cache keys, fault targets and backoff seeds: content addresses
                fingerprints[index] = request_fingerprint(request)
            hit = None
            if cache_store is not None:
                hit = cache_store.lookup(fingerprints[index], request)
            if hit is None:
                misses.append(index)
            else:
                results[index] = hit

        # ``workers`` semantics are independent of the hit rate: the reported
        # count is the scheduling capacity (clamped to the request count),
        # while the transport itself is sized by the actual miss load.
        effective = min(workers, len(requests) or 1)
        pool_size = min(workers, len(misses) or 1)
        if tracer.enabled:
            batch_span.update(
                {
                    "cache_hits": len(requests) - len(misses),
                    "cache_misses": len(misses),
                }
            )

        # Results are stored as they arrive, so a failing request late in the
        # batch still leaves every already completed sibling cached for the
        # retry.
        def record(index: int, outcome: CompileResult | CompileError) -> None:
            results[index] = outcome
            if cache_store is not None and outcome.ok:
                cache_store.store(fingerprints[index], outcome)

        work = _Work(
            requests, fingerprints, plan, tracer.context() if tracer.enabled else None
        )
        # A timeout or a kill fault can only be enforced on a separate process.
        kills = plan is not None and plan.has_kills()
        if pool_size == 1 and timeout is None and not kills:
            transport = _InlineTransport(work)
        else:
            transport = _ProcessTransport(pool_size, timeout, work)
        loop = _AttemptLoop(
            work,
            record,
            retries=retries,
            backoff=backoff,
            on_error=on_error,
            raw_errors=(
                on_error == "raise" and timeout is None and not retries and plan is None
            ),
        )
        loop.run(misses, transport)

    return BatchResult(
        results=results,
        workers=effective,
        wall_seconds=time.perf_counter() - start,
        cache_hits=len(requests) - len(misses),
        cache_misses=len(misses),
        cached_slots=frozenset(range(len(requests))) - frozenset(misses),
    )


def compile_sweep(
    base: CompileRequest,
    *,
    routers=None,
    seeds=None,
    circuits=None,
    workers: int = 1,
    cache=True,
    on_error: str = "raise",
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.0,
    faults=None,
) -> BatchResult:
    """Expand ``base`` with :func:`repro.api.request.sweep_requests` and compile it."""
    from repro.api.request import sweep_requests

    return compile_many(
        sweep_requests(base, routers=routers, seeds=seeds, circuits=circuits),
        workers=workers,
        cache=cache,
        on_error=on_error,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        faults=faults,
    )


__all__ = [
    "compile_many",
    "compile_sweep",
    "default_workers",
    "CompileResult",
    "ON_ERROR_POLICIES",
]
