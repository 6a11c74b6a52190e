"""Seeded inputs of the three workloads.

Every input is a pure function of the workload seed: the same seed gives the
same circuits, backends, routers, request order and traffic mix.  The seed
draws the QUEKO instances, the router tie-breaking seed and every order; the
shape of each workload (depth ladder, QASMBench families and sizes, backends,
routers, request counts) is fixed, so runs at different seeds do comparable
work.  See WORKLOADS.md for why each family and size was chosen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.api import CompileRequest
from repro.benchgen.qasmbench import qasmbench_circuit
from repro.benchgen.queko import queko_dataset

#: QUEKO circuits are built on the 54-qubit Sycamore grid, one per depth.
QUEKO_DEPTHS = (5, 15, 25, 35, 45)
#: QASMBench families of the paper's Tables V/VI, one size each in 20-64.
QASMBENCH = (
    ("qft", 24),
    ("qaoa", 32),
    ("adder", 40),
    ("qugan", 48),
    ("ising", 64),
    ("multiplier", 20),
)
BACKENDS = ("sherbrooke", "ankaa3")
BASELINE_ROUTERS = ("sabre", "lightsabre", "cirq", "tket", "greedy", "qmap")
SERVE_ROUTERS = ("sabre", "qlosure")

#: serve-mixed traffic: requests per second of run time, the share of fresh
#: (never seen) requests, and the server's disk-entry bound as a share of the
#: distinct results a run produces (below 1, so fresh results evict).
SERVE_REQUESTS_PER_SECOND = 17
#: A latency tail needs at least ten samples beyond its 90th percentile.
MIN_SAMPLES = 110
SERVE_FRESH_SHARE = 0.25
SERVE_DISK_BOUND_SHARE = 0.6


def generate_circuits(seed: int) -> list:
    """The workload circuits: seeded QUEKO draws plus the QASMBench set."""
    queko = queko_dataset("54qbt", depths=list(QUEKO_DEPTHS), circuits_per_depth=1, seed=seed)
    circuits = [instance.circuit for instance in queko]
    circuits += [qasmbench_circuit(family, qubits) for family, qubits in QASMBENCH]
    return circuits


def cold_requests(workload: str, seed: int, circuits: list, graphs: dict) -> list:
    """The request list of ``qlosure-cold`` or ``baselines-cold``.

    ``qlosure-cold`` maps every circuit onto both backends.  ``baselines-cold``
    maps each circuit onto one backend per router, alternating, so every
    circuit meets both backends and one pass of six routers stays short
    enough to repeat.  Requests carry the prebuilt coupling graphs, so
    per-request time is the pipeline's and not the device construction's.
    """
    if workload == "qlosure-cold":
        targets = [("qlosure", circuit, backend) for circuit in circuits for backend in BACKENDS]
    else:
        targets = [
            (router, circuit, BACKENDS[(r + c) % len(BACKENDS)])
            for r, router in enumerate(BASELINE_ROUTERS)
            for c, circuit in enumerate(circuits)
        ]
    requests = [
        CompileRequest(
            circuit=circuit,
            backend=graphs[backend],
            router=router,
            seed=seed,
            validation="full",
            label=f"{circuit.name}@{backend}",
        )
        for router, circuit, backend in targets
    ]
    random.Random(seed).shuffle(requests)
    return requests


@dataclass
class ServePlan:
    """The serve-mixed traffic: a warm set, a request stream and its bound."""

    warm: list
    stream: list
    max_entries: int

    @property
    def distinct(self) -> list:
        """Every distinct request of the stream, first-seen order."""
        seen: dict = {}
        for request in self.stream:
            seen.setdefault(id(request), request)
        return list(seen.values())


def serve_plan(seed: int, circuits: list, seconds: int) -> ServePlan:
    """The serve-mixed stream: about 3/4 warm repeats, about 1/4 fresh.

    The warm set holds one request per circuit.  Each warm request appears
    once at the head of the stream, so its first repeat is a disk hit before
    any fresh store can evict anything; later repeats cycle evenly through
    the warm set.  Fresh requests cycle through the circuits with a router
    seed no other request uses, so each misses, queues, routes and stores.
    Backends and routers rotate over the circuits in a fixed pattern, and
    fresh requests are spread evenly through the repeats, so the seed changes
    the circuits' instances and the order within each kind, not the mix: a
    run of adjacent misses, which queue behind each other at the single
    worker, would otherwise set the latency tail at one seed and not another.
    """
    rng = random.Random(seed)
    combos = [(backend, router) for backend in BACKENDS for router in SERVE_ROUTERS]

    def request(index: int, rotation: int, router_seed: int) -> CompileRequest:
        backend, router = combos[(index + rotation) % len(combos)]
        return CompileRequest(
            circuit=circuits[index],
            backend=backend,
            router=router,
            seed=router_seed,
            validation="full",
            label=circuits[index].name,
        )

    count = len(circuits)
    warm = [request(index, 0, seed) for index in range(count)]
    total = max(MIN_SAMPLES, SERVE_REQUESTS_PER_SECOND * seconds)
    fresh_count = round(SERVE_FRESH_SHARE * total)
    fresh = [request(k % count, 1 + k // count, seed + 1 + k) for k in range(fresh_count)]
    repeats = [warm[k % count] for k in range(total - count - fresh_count)]
    head = list(warm)
    for part in (head, repeats, fresh):
        rng.shuffle(part)
    return ServePlan(
        warm=warm,
        stream=head + spread_evenly(repeats, fresh),
        max_entries=max(count, int(SERVE_DISK_BOUND_SHARE * (count + fresh_count))),
    )


def spread_evenly(many: list, few: list) -> list:
    """``many`` and ``few`` merged in order, with ``few`` evenly spaced."""
    total = len(many) + len(few)
    merged, rest, sparse = [], iter(many), iter(few)
    for position in range(total):
        due = (position + 1) * len(few) // total > position * len(few) // total
        merged.append(next(sparse) if due else next(rest))
    return merged
