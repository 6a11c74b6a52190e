#!/usr/bin/env python
"""Routing perf smoke: route a fixed QUEKO workload with every router.

Writes ``BENCH_routing.json`` (mean swaps / depth / seconds / cost
evaluations per router, plus a ``host`` record: CPU model, ``nproc`` and
Python version) so every commit leaves a machine-readable perf trajectory
behind.  Quality metrics must stay constant across perf-only
changes; ``mean_seconds`` is the number that should go down.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py [--output PATH] [--rounds N]
                                                   [--workers N] [--quick]
                                                   [--compare BASELINE]
                                                   [--no-cache] [--cache-dir DIR]
                                                   [--timeout SECONDS] [--retries N]

or equivalently ``make bench`` / ``repro-map bench``.  ``--compare`` turns
the run into a determinism gate: per-router ``mean_swaps``/``mean_depth``
are checked against an earlier trajectory record (routing is bit-for-bit
deterministic, so a perf-only change must leave them untouched) and any
drift exits non-zero.  The record carries cache hit/miss counters; the
compile cache is consulted only when ``--cache-dir`` names a persistent
store (requests within one run are all distinct, so an in-memory cache
could never hit) -- a re-run against the same directory then answers from
it, and ``--no-cache`` forbids even that.  The counters are informational
and never gate the ``--compare`` check -- hit rates move without the routed
bits changing.

The batch runs fault-tolerantly (``on_error="collect"``) and the run asserts
**zero failed requests**: any failure is printed as a structured summary and
exits nonzero, with or without ``--compare``, so the drift gate can never
silently pass over a partially-failed run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.perf_trajectory import (
    quality_regressions,
    render_trajectory,
    write_perf_smoke,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_routing.json",
        help="where to write the JSON trajectory record",
    )
    parser.add_argument(
        "--rounds", type=int, default=1, help="repetitions of the fixed workload"
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the batch driver (1 = serial)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced fixture for CI smoke runs (not comparable to full runs)",
    )
    parser.add_argument(
        "--compare", type=Path, default=None, metavar="BASELINE",
        help="fail when per-router mean swaps/depth diverge from this "
        "earlier trajectory record (determinism gate for perf changes)",
    )
    parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=True,
        help="allow the compile cache (only consulted when --cache-dir is given)",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None,
        help="persist cache entries in this directory (a re-run then hits)",
    )
    parser.add_argument(
        "--cache-max-bytes", type=int, default=None, metavar="N",
        help="bound the disk cache to N bytes (LRU eviction; requires --cache-dir)",
    )
    parser.add_argument(
        "--cache-max-entries", type=int, default=None, metavar="N",
        help="bound the disk cache to N entries (LRU eviction; requires --cache-dir)",
    )
    parser.add_argument(
        "--cache-readonly", action="store_true",
        help="open the cache directory read-only (serve hits, never write or evict)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-request wall-clock bound per attempt",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="extra attempts per failed request (deterministic seeded backoff)",
    )
    parser.add_argument(
        "--trace-out", type=Path, default=None, metavar="FILE",
        help="record the benchmark batch as a JSONL trace file "
        "(observational only; never affects the trajectory record)",
    )
    parser.add_argument(
        "--inject-faults", metavar="PLAN", default=None, help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.timeout is not None and not args.timeout > 0:
        parser.error("--timeout must be a positive number of seconds")
    if args.retries < 0:
        parser.error("--retries must be non-negative")
    if not args.cache and args.cache_dir is not None:
        parser.error("--no-cache and --cache-dir are mutually exclusive")
    if args.cache_dir is None and (
        args.cache_max_bytes is not None
        or args.cache_max_entries is not None
        or args.cache_readonly
    ):
        parser.error(
            "--cache-max-bytes/--cache-max-entries/--cache-readonly require --cache-dir"
        )
    for flag in ("cache_max_bytes", "cache_max_entries"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            parser.error(f"--{flag.replace('_', '-')} must be a positive integer")
    faults = None
    if args.inject_faults is not None:
        from repro.api.faults import FaultPlan

        try:
            faults = FaultPlan.parse(args.inject_faults)
        except ValueError as exc:
            parser.error(f"--inject-faults: {exc}")
    baseline = None
    if args.compare is not None:
        try:
            baseline = json.loads(args.compare.read_text())
        except (OSError, ValueError) as exc:
            parser.error(f"--compare: cannot read baseline {args.compare}: {exc}")
    tracer = None
    if args.trace_out is not None:
        from repro.obs import Tracer, use_tracer

        tracer = Tracer()
        install = use_tracer(tracer)
    else:
        from contextlib import nullcontext

        install = nullcontext()
    with install:
        record = write_perf_smoke(
            args.output,
            rounds=args.rounds,
            workers=args.workers,
            quick=args.quick,
            cache=args.cache,
            cache_dir=args.cache_dir,
            cache_max_bytes=args.cache_max_bytes,
            cache_max_entries=args.cache_max_entries,
            cache_readonly=args.cache_readonly,
            timeout=args.timeout,
            retries=args.retries,
            faults=faults,
        )
    print(render_trajectory(record))
    print(f"\nwrote {args.output}")
    if tracer is not None:
        from repro.obs import write_trace

        count = write_trace(
            args.trace_out,
            tracer,
            meta={"tool": "perf_smoke", "trace_id": tracer.trace_id},
        )
        print(f"wrote {args.trace_out} ({count} spans)")
    failures = record.get("failures", [])
    if failures:
        # Zero-failure assertion: a partially-failed run exits nonzero even
        # without --compare, so it can never pose as a healthy trajectory.
        print(f"\n{len(failures)} request(s) failed:", file=sys.stderr)
        for failure in failures:
            print(
                f"  request {failure['index']}: {failure['error']} in "
                f"{failure['phase']} pass: {failure['message']}",
                file=sys.stderr,
            )
        return 1
    if baseline is not None:
        problems = quality_regressions(record, baseline)
        if problems:
            print(f"\nquality drift vs {args.compare}:", file=sys.stderr)
            for line in problems:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"quality identical to {args.compare} (swaps/depth unchanged)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
