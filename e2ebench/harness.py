"""One benchmark run: set-up, measurement, output checks and the record.

``run.py`` is the entry point; it puts ``src/`` on the import path before
importing this module, so the time to import the stack is measured there.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from dataclasses import replace
from pathlib import Path

import numpy

import cold
import hostspeed
import layers
import serve
import workloads
from checker import CheckError, check_routed, result_digest
from repro.api import CompileCache, compile, request_to_payload
from repro.hardware.backends import backend_by_name
from repro.obs.export import read_trace, write_chrome_trace, write_trace
from repro.obs.trace import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
#: Set-up is repeated and its median reported, so one slow start-up does
#: not decide the number.  A traced run, which does not report ``setup_s``,
#: sets up once.
SETUP_REPEATS = 5
END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "swaps_total": "count",
    "depth_total": "count",
    "success_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def host_block(seed: int) -> dict:
    """The host and configuration every record carries."""
    cpu = next(
        (line.split(":", 1)[1].strip()
         for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    commit = dirty = None
    if (ROOT / ".git").exists():  # an exported checkout has no commit to report
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                        capture_output=True, text=True, timeout=10,
                                        check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass  # git missing or broken: commit and dirty flag stay unknown
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
    }


def cold_compile(request, cache):
    """``compile(request, cache=cache)``, or the exception it raised."""
    try:
        return compile(request, cache=cache)
    except Exception as exc:  # a failing reference is reported, not fatal
        return exc


def latency_metrics(samples: list, completed: int, walls: list | None) -> dict:
    """Latency percentiles and throughput in host-speed-scaled time.

    ``samples`` and ``walls`` are ``(seconds, host-speed scale)`` pairs.
    Throughput is ``completed`` requests per summed scaled ``walls`` time,
    or, for a single caller (``walls`` is None), per summed call time.  The
    raw, unscaled numbers are returned under ``raw.*`` keys.
    """
    metrics = {}
    for prefix, scaled in (("", True), ("raw.", False)):
        times = [seconds * (scale if scaled else 1.0) for seconds, scale in samples]
        busy = sum(times) if walls is None else busy_seconds(walls, scaled)
        metrics.update({
            f"{prefix}latency_p50_ms": 1000 * statistics.median(times),
            f"{prefix}latency_p90_ms": 1000 * percentile(times, 0.9),
            f"{prefix}throughput_rps": completed / busy,
        })
    return metrics


def busy_seconds(walls: list, scaled: bool = True) -> float:
    """The summed ``(seconds, scale)`` wall times, scaled or raw."""
    return sum(seconds * (scale if scaled else 1.0) for seconds, scale in walls)


def percentile(values: list, share: float) -> float:
    """Linear-interpolated percentile of ``values`` (``share`` in [0, 1])."""
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Run:
    """One benchmark run: set-up, measurement, checks and the result record."""

    def __init__(self, args, import_s: float):
        self.args = args
        self.import_s = import_s
        self.workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.failures: list = []
        self.wrong = 0
        self.attempted = 0
        self.servers: list = []

    # -- set-up --------------------------------------------------------------

    def setup(self) -> dict:
        """Build the inputs :data:`SETUP_REPEATS` times (once when traced);
        keep the last build.

        ``setup_s`` is the import time plus the median set-up, both scaled by
        host speed; ``raw.setup_s`` is the same sum unscaled.
        """
        totals, generate, distance, factors = [], [], [], []
        repeats = 1 if self.args.trace else SETUP_REPEATS
        for repeat in range(repeats):
            last = repeat == repeats - 1
            before = hostspeed.calibrate()
            start = time.perf_counter()
            circuits = workloads.generate_circuits(self.args.seed)
            generate.append(time.perf_counter() - start)
            graphs = {name: backend_by_name(name) for name in workloads.BACKENDS}
            begin = time.perf_counter()
            for graph in graphs.values():
                graph.distance_table()
            distance.append(time.perf_counter() - begin)
            if self.args.workload == "serve-mixed":
                self.prepare_serve(circuits, graphs, repeat, keep=last)
            else:
                self.requests = workloads.cold_requests(self.args.workload, self.args.seed,
                                                        circuits, graphs)
            totals.append(time.perf_counter() - start)
            factors.append(hostspeed.scale(before, hostspeed.calibrate()))
        self.graphs = graphs
        factor = statistics.median(factors)
        return {
            "setup_s": self.import_s * factor
            + statistics.median(total * f for total, f in zip(totals, factors)),
            "raw.setup_s": self.import_s + statistics.median(totals),
            "benchgen.generate_s": statistics.median(generate),
            "hardware.distance_table_s": statistics.median(distance),
        }

    def prepare_serve(self, circuits, graphs, repeat: int, keep: bool) -> None:
        """Plan the traffic, encode it, pre-warm a store and start a server."""
        plan = workloads.serve_plan(self.args.seed, circuits, self.args.seconds)
        bodies = {id(r): json.dumps(request_to_payload(r)).encode() for r in plan.distinct}
        pristine = self.workdir / f"prewarmed-{repeat}"
        store = CompileCache(directory=pristine, max_entries=plan.max_entries)
        references = {
            id(request): cold_compile(replace(request, backend=graphs[request.backend]),
                                      cache=store)
            for request in plan.warm
        }
        server = self.start_server(pristine, plan.max_entries, f"server-{repeat}")
        if not keep:
            self.stop_server(server)
            shutil.rmtree(self.workdir / f"server-{repeat}")
            shutil.rmtree(pristine)
            return
        self.plan, self.bodies, self.references = plan, bodies, references
        self.pristine, self.server = pristine, server

    def start_server(self, pristine: Path, max_entries: int, name: str, trace_out=None):
        store = self.workdir / name / "store"
        shutil.copytree(pristine, store)
        server = serve.Server(SRC, self.workdir / name, store, max_entries, trace_out)
        self.servers.append(server)
        return server

    def stop_server(self, server) -> None:
        server.stop()
        self.servers.remove(server)

    def close(self) -> None:
        for server in list(self.servers):
            self.stop_server(server)

    # -- checks --------------------------------------------------------------

    def fail(self, what: str, wrong: bool = False) -> None:
        self.failures.append(what)
        self.wrong += wrong

    def check_result(self, request, result) -> tuple:
        """``(routed digest, None)``, or ``(None, problem)`` if the checker rejects it."""
        graph = request.backend
        if isinstance(graph, str):
            graph = self.graphs[graph]
        try:
            check_routed(request.circuit, result.routed_circuit, result.initial_layout,
                         graph.edges())
        except CheckError as exc:
            return None, f"rejected by the checker: {exc}"
        return result_digest(result), None

    def summarize(self, request, result) -> tuple:
        """``(routed digest, checker problem, swaps, depth)``: all a check keeps."""
        return (*self.check_result(request, result), result.swaps_added, result.routed_depth)

    # -- cold workloads --------------------------------------------------------

    def cold(self) -> tuple[dict, list]:
        samples, firsts = cold.run_passes(self.requests, self.args.seconds, self.summarize)
        self.attempted = len(samples)
        by_index: dict = {}
        for index, seconds, _, outcome in samples:
            by_index.setdefault(index, []).append((seconds, outcome))
        rows, swaps, depth = [], 0, 0
        for index, request in enumerate(self.requests):
            runs = by_index[index]
            first = firsts.get(index)
            self.check_outcomes(request, first, [outcome for _, outcome in runs])
            if first is not None:
                swaps += first[2]
                depth += first[3]
            rows.append(self.row(request, first, [seconds for seconds, _ in runs]))
        completed = sum(1 for *_, outcome in samples if isinstance(outcome, str))
        return {
            **latency_metrics([(seconds, factor) for _, seconds, factor, _ in samples],
                              completed, None),
            "swaps_total": swaps,
            "depth_total": depth,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }, rows

    def check_outcomes(self, request, first, outcomes: list) -> None:
        """Check every outcome (a routed digest or an exception) of one request.

        ``first`` is the :meth:`summarize` of the request's first result, which
        the checker saw; every outcome must carry its routed digest.
        """
        name = f"{request.label}/{request.router}"
        reference, problem = (None, None) if first is None else first[:2]
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                self.fail(f"{name}: {outcome!r}")
            elif problem is not None:
                self.fail(f"{name}: {problem}", wrong=True)
            elif outcome != reference:
                self.fail(f"{name}: repeats differ", wrong=True)

    def cold_traced(self) -> tuple[dict, list]:
        tracer = Tracer()
        requests = self.requests
        outcomes, untraced_s, traced_s = cold.traced_pass(requests, tracer)
        self.attempted = 2 * len(requests)
        results, rows = [], []
        for request, pair in zip(requests, outcomes):
            done = [outcome for outcome in pair if not isinstance(outcome, Exception)]
            first = self.summarize(request, done[0]) if done else None
            self.check_outcomes(request, first, [
                outcome if isinstance(outcome, Exception) else result_digest(outcome)
                for outcome in pair
            ])
            if not isinstance(pair[1], Exception):
                results.append(pair[1])
                rows.append(self.row(request, first, []))
        names = {graph.name: name for name, graph in self.graphs.items()}
        wire = [replace(r.request, backend=names[r.request.backend.name]) for r in results]
        metrics = {
            **layers.pipeline_metrics(tracer.spans, tracer.counters),
            **layers.codec_metrics(tracer, wire, results, self.workdir / "layer-cache"),
            "cache.hit_ratio": 0.0,
            "cache.evictions": 0,
            "serve.hit_latency_p50_ms": 0.0,
            "serve.miss_latency_p50_ms": 0.0,
            "serve.queue_wait_s": 0.0,
            "serve.exec_s": 0.0,
            "serve.rejected": 0,
            "serve.coalesced": 0,
            "obs.trace_overhead_ratio": traced_s / untraced_s,
        }
        self.export_trace(tracer.spans, tracer.counters)
        return metrics, rows

    # -- serve-mixed -----------------------------------------------------------

    def serve_pass(self, server) -> tuple[list, list]:
        replies, walls = serve.drive(server, [self.bodies[id(r)] for r in self.plan.stream])
        self.attempted += len(replies)
        return replies, walls

    def serve_check(self, passes: list) -> tuple[int, int, list]:
        """Check every reply against the cold ``compile()`` of its request."""
        for request in self.plan.distinct:
            if id(request) not in self.references:
                graph = self.graphs[request.backend]
                self.references[id(request)] = cold_compile(replace(request, backend=graph),
                                                            cache=False)
        swaps = depth = 0
        rows = []
        for request in self.plan.distinct:
            reference = self.references[id(request)]
            if isinstance(reference, Exception):
                summary = None
                digest, problem = None, f"cold compile() failed: {reference!r}"
            else:
                summary = self.summarize(request, reference)
                digest, problem = summary[:2]
                swaps += summary[2]
                depth += summary[3]
            name = f"{request.label}/{request.router}"
            latencies = []
            for replies in passes:
                for stream_request, reply in zip(self.plan.stream, replies):
                    if stream_request is not request:
                        continue
                    seconds, _, status, _, outcome = reply
                    latencies.append(seconds)
                    if status is None:
                        self.fail(f"{name}: no reply ({outcome})")
                    elif status != 200:
                        self.fail(f"{name}: status {status}")
                    elif problem is not None:
                        self.fail(f"{name}: {problem}", wrong=True)
                    elif outcome["digest"] != digest:
                        self.fail(f"{name}: reply differs from cold compile()", wrong=True)
            rows.append(self.row(request, summary, latencies))
        return swaps, depth, rows

    def serve_mixed(self) -> tuple[dict, list]:
        replies, walls = self.serve_pass(self.server)
        peak = self.server.peak_rss_mb()
        self.stop_server(self.server)
        swaps, depth, rows = self.serve_check([replies])
        completed = sum(1 for reply in replies if reply[2] == 200)
        return {
            **latency_metrics([reply[:2] for reply in replies], completed, walls),
            "swaps_total": swaps,
            "depth_total": depth,
            "peak_rss_mb": peak,
        }, rows

    def serve_traced(self) -> tuple[dict, list]:
        untraced, untraced_walls = self.serve_pass(self.server)
        self.stop_server(self.server)
        trace_file = self.workdir / "server.trace.jsonl"
        server = self.start_server(self.pristine, self.plan.max_entries, "server-traced",
                                   trace_out=trace_file)
        traced, traced_walls = self.serve_pass(server)
        snapshot = server.metrics()
        self.stop_server(server)
        _, spans, counters = read_trace(trace_file)
        swaps, depth, rows = self.serve_check([untraced, traced])
        served = snapshot["counters"]
        lookups = served.get("cache_hits", 0) + served.get("cache_misses", 0)
        waits = snapshot["latency_seconds"]

        def p50_ms(cached: bool) -> float:
            values = [r[0] * r[1] for r in traced if r[2] == 200 and r[3] is cached]
            return 1000 * statistics.median(values) if values else 0.0

        # The codec layers are timed on the warm set: the payloads every
        # cache hit, most of the stream, decodes and replays.
        tracer = Tracer()
        requests = [r for r in self.plan.warm
                    if not isinstance(self.references[id(r)], Exception)]
        results = [self.references[id(r)] for r in requests]
        metrics = {
            **layers.pipeline_metrics(spans, counters),
            **layers.codec_metrics(tracer, requests, results, self.workdir / "layer-cache"),
            "cache.hit_ratio": served.get("cache_hits", 0) / lookups if lookups else 0.0,
            "cache.evictions": served.get("cache_evictions", 0),
            "serve.hit_latency_p50_ms": p50_ms(True),
            "serve.miss_latency_p50_ms": p50_ms(False),
            "serve.queue_wait_s": waits.get("queue_wait", {}).get("sum_seconds", 0.0),
            "serve.exec_s": waits.get("total", {}).get("sum_seconds", 0.0),
            "serve.rejected": served.get("rejected_busy", 0),
            "serve.coalesced": served.get("coalesced", 0),
            "obs.trace_overhead_ratio": busy_seconds(traced_walls) / busy_seconds(untraced_walls),
        }
        self.export_trace(spans + tracer.spans, counters)
        return metrics, rows

    # -- records -----------------------------------------------------------------

    @staticmethod
    def row(request, summary, latencies: list) -> dict:
        """One record row; ``summary`` is a :meth:`summarize` tuple or None."""
        return {
            "circuit": request.label,
            "backend": request.backend if isinstance(request.backend, str) else request.backend.name,
            "router": request.router,
            "seed": request.seed,
            "swaps": summary[2] if summary is not None else None,
            "depth": summary[3] if summary is not None else None,
            "latency_ms": 1000 * statistics.median(latencies) if latencies else None,
            "samples": len(latencies),
        }

    def export_trace(self, spans, counters) -> None:
        """Write the traced run's spans as JSONL and as a Chrome trace."""
        tracer = Tracer()
        tracer.extend(spans, counters)
        base = WORK / "traces" / f"{self.args.workload}-seed{self.args.seed}"
        base.parent.mkdir(parents=True, exist_ok=True)
        write_trace(base.with_suffix(".trace.jsonl"), tracer, meta={"tool": "e2ebench"})
        write_chrome_trace(base.with_suffix(".chrome.json"), spans, counters)


def run(args, import_s: float) -> int:
    """Run one workload and print its result; the last line is the JSON result."""
    bench = Run(args, import_s)
    try:
        setup = bench.setup()
        if args.workload == "serve-mixed":
            metrics, rows = bench.serve_traced() if args.trace else bench.serve_mixed()
        else:
            metrics, rows = bench.cold_traced() if args.trace else bench.cold()
    finally:
        bench.close()
    failed = len(bench.failures)
    if args.trace:
        metrics.update({k: setup[k] for k in ("benchgen.generate_s", "hardware.distance_table_s")})
        units = layers.UNITS
    else:
        metrics["setup_s"] = setup["setup_s"]
        metrics["success_ratio"] = (bench.attempted - failed) / bench.attempted
        units = END_TO_END_UNITS
    record = {
        "host": host_block(args.seed),
        "config": {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "attempted": bench.attempted, "setup": setup},
        "failures": bench.failures,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "unscaled": {name: value for name, value in metrics.items() if name.startswith("raw.")},
        "rows": rows,
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{bench.workdir.name}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(bench.workdir, ignore_errors=True)
    for name, entry in record["metrics"].items():
        print(f"{name:32s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({
        "correct": bench.wrong == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0
