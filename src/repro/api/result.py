"""Typed compile results: per-request outcome and batch aggregate.

:class:`CompileResult` wraps the raw
:class:`~repro.routing.result.RoutingResult` with the canonical router name,
the quality metrics the evaluation tables consume and the per-pass wall-clock
breakdown of the pipeline.  :class:`BatchResult` aggregates an ordered list
of per-request outcomes (one per request, input order preserved) with
per-router summary statistics.

A per-request *failure* is a first-class outcome, not just an exception:
:class:`CompileError` is a structured record (failing pass, exception type,
message, traceback digest, attempt count) that doubles as the exception
raised under ``on_error="raise"`` and as the value slotted into
``BatchResult.results`` under ``on_error="collect"`` -- a failing request in
a batch never destroys its completed siblings.
"""

from __future__ import annotations

import hashlib
import statistics
import traceback as traceback_module
from dataclasses import dataclass, field

from repro.api.request import CompileRequest
from repro.routing.result import RoutingResult


class CompileError(RuntimeError):
    """A compile request that failed: structured, collectable, raisable.

    Carries the failing pipeline phase (``request``, ``load``, ``place``,
    ``route``, ``validate``, ``metrics``, ``worker`` for crash/timeout
    failures, ``inject`` for injected faults), the original exception type
    and message, a short digest of the full traceback (stable grouping key
    for log aggregation without shipping whole tracebacks around) and the
    number of attempts made.  Instances are picklable, so worker processes
    return them through the batch driver unchanged.
    """

    def __init__(
        self,
        message,
        *,
        phase: str = "request",
        exc_type: str | None = None,
        traceback_digest: str | None = None,
        attempts: int = 1,
        request: CompileRequest | None = None,
    ):
        super().__init__(message)
        self.message = str(message)
        self.phase = phase
        self.exc_type = exc_type or type(self).__name__
        self.traceback_digest = traceback_digest
        self.attempts = int(attempts)
        self.request = request

    #: Failures and successes share the ``ok`` discriminator, so batch
    #: consumers can branch without isinstance checks.
    @property
    def ok(self) -> bool:
        return False

    @classmethod
    def from_exception(
        cls,
        exc: BaseException,
        *,
        phase: str | None = None,
        attempts: int = 1,
        request: CompileRequest | None = None,
    ) -> "CompileError":
        """Build the structured record for an arbitrary exception.

        The failing phase is read from the ``_compile_phase`` annotation the
        pipeline attaches (see :func:`repro.api.pipeline.compile_uncached`)
        unless given explicitly; existing :class:`CompileError` instances
        keep their structured fields with the attempt count updated.
        """
        text = "".join(
            traceback_module.format_exception(type(exc), exc, exc.__traceback__)
        )
        digest = hashlib.sha256(text.encode()).hexdigest()[:12]
        if isinstance(exc, cls):
            return cls(
                exc.message,
                phase=phase or exc.phase,
                exc_type=exc.exc_type,
                traceback_digest=exc.traceback_digest or digest,
                attempts=attempts,
                request=request if request is not None else exc.request,
            )
        resolved_phase = phase or getattr(exc, "_compile_phase", None) or "pipeline"
        message = str(exc) or type(exc).__name__
        return cls(
            message,
            phase=resolved_phase,
            exc_type=type(exc).__name__,
            traceback_digest=digest,
            attempts=attempts,
            request=request,
        )

    def summary(self) -> dict:
        """Flat machine-readable record (mirrors ``CompileResult.summary``)."""
        return {
            "ok": False,
            "error": self.exc_type,
            "phase": self.phase,
            "message": self.message,
            "traceback_digest": self.traceback_digest,
            "attempts": self.attempts,
        }

    def describe(self, verbose: bool = False) -> str:
        """One-line human-readable summary (what the CLI prints).

        The traceback digest is debugging detail, not user guidance: it only
        appears when ``verbose`` is set (the CLI's ``-v/--verbose``).
        """
        digest = (
            f", traceback {self.traceback_digest}"
            if verbose and self.traceback_digest
            else ""
        )
        attempts = f" after {self.attempts} attempt(s)" if self.attempts != 1 else ""
        return (
            f"{self.exc_type} in {self.phase} pass{attempts}: {self.message}{digest}"
        )

    def __repr__(self) -> str:
        return (
            f"CompileError(phase={self.phase!r}, exc_type={self.exc_type!r}, "
            f"message={self.message!r}, attempts={self.attempts})"
        )


@dataclass
class CompileResult:
    """Outcome of one :func:`repro.api.compile` run."""

    request: CompileRequest
    routing: RoutingResult
    router: str
    backend_name: str
    circuit_name: str
    pass_timings: dict[str, float] = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    #: Successes and failures share the ``ok`` discriminator.
    @property
    def ok(self) -> bool:
        return True

    # -- convenience views over the routing result --------------------------

    @property
    def routed_circuit(self):
        """The mapped circuit (physical operands, explicit SWAPs)."""
        return self.routing.routed_circuit

    @property
    def swaps_added(self) -> int:
        return self.routing.swaps_added

    @property
    def routed_depth(self) -> int:
        return self.routing.routed_depth

    @property
    def initial_layout(self) -> dict[int, int]:
        return self.routing.initial_layout

    @property
    def route_seconds(self) -> float:
        """Wall-clock time of the routing pass alone."""
        return self.pass_timings.get("route", self.routing.runtime_seconds)

    @property
    def total_seconds(self) -> float:
        """Wall-clock time of the whole pipeline."""
        return sum(self.pass_timings.values())

    def summary(self) -> dict:
        """Flat summary (metrics plus the timing breakdown)."""
        return {
            **self.metrics,
            "pass_timings": {k: round(v, 6) for k, v in self.pass_timings.items()},
        }

    def __repr__(self) -> str:
        return (
            f"CompileResult(router={self.router!r}, circuit={self.circuit_name!r}, "
            f"swaps={self.swaps_added}, depth={self.routed_depth}, "
            f"time={self.total_seconds:.3f}s)"
        )


@dataclass
class BatchResult:
    """Aggregate outcome of one :func:`repro.api.compile_many` run.

    ``results`` preserves the input request order, so a batch compiled with
    ``workers=8`` is positionally comparable to the same batch compiled
    serially.  Under ``on_error="collect"`` a failed request occupies its
    original slot as a :class:`CompileError` instead of aborting the batch;
    aggregate statistics (``per_router``, timing sums) cover the successful
    results only.
    """

    results: list[CompileResult | CompileError]
    workers: int
    wall_seconds: float
    #: Requests answered from the compile cache vs computed fresh (with
    #: caching disabled every request counts as a miss).
    cache_hits: int = 0
    cache_misses: int = 0
    #: The batch positions answered from the compile cache (immutable); every
    #: other slot was computed by this batch or failed.
    cached_slots: frozenset[int] = frozenset()

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]

    # -- failure views -------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True when every request in the batch succeeded."""
        return not self.errors

    @property
    def successes(self) -> list[CompileResult]:
        """The successful results, batch order preserved."""
        return [r for r in self.results if isinstance(r, CompileResult)]

    @property
    def errors(self) -> list[CompileError]:
        """The structured failures, batch order preserved."""
        return [r for r in self.results if isinstance(r, CompileError)]

    @property
    def failures(self) -> list[tuple[int, CompileError]]:
        """``(request index, error)`` pairs for every failed request."""
        return [
            (index, r)
            for index, r in enumerate(self.results)
            if isinstance(r, CompileError)
        ]

    def raise_for_failures(self) -> None:
        """Re-raise the first collected failure (no-op on a clean batch)."""
        for result in self.results:
            if isinstance(result, CompileError):
                raise result

    @property
    def total_route_seconds(self) -> float:
        """Sum of per-request routing times (the serial-equivalent cost)."""
        return sum(r.route_seconds for r in self.successes)

    @property
    def speedup(self) -> float:
        """Serial-equivalent routing time over batch wall-clock."""
        return self.total_route_seconds / max(self.wall_seconds, 1e-9)

    def per_router(self) -> dict[str, dict[str, float]]:
        """Mean swaps / depth / routing seconds / cost evaluations per router.

        Covers successful results only -- a collected failure has no routed
        output to aggregate (``summary()['failed']`` counts them).
        """
        grouped: dict[str, list[CompileResult]] = {}
        for result in self.successes:
            grouped.setdefault(result.router, []).append(result)
        table: dict[str, dict[str, float]] = {}
        for router, items in grouped.items():
            table[router] = {
                "mean_swaps": round(statistics.mean(r.swaps_added for r in items), 2),
                "mean_depth": round(statistics.mean(r.routed_depth for r in items), 2),
                "mean_seconds": round(statistics.mean(r.route_seconds for r in items), 4),
                "total_seconds": round(sum(r.route_seconds for r in items), 4),
                "mean_cost_evaluations": round(
                    statistics.mean(r.routing.cost_evaluations for r in items), 1
                ),
                "runs": len(items),
            }
        return table

    def summary(self) -> dict:
        """Flat batch summary (used by the benchmark harness)."""
        return {
            "requests": len(self.results),
            "workers": self.workers,
            "wall_seconds": round(self.wall_seconds, 4),
            "total_route_seconds": round(self.total_route_seconds, 4),
            "speedup": round(self.speedup, 2),
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "failed": len(self.errors),
            "failures": [
                {"index": index, **error.summary()} for index, error in self.failures
            ],
            "routers": self.per_router(),
        }
