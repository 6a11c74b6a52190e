"""Golden determinism snapshots for every registered router.

Routing in this repository is bit-for-bit deterministic per seed, and the
performance work on the hot paths (incremental A*, bitset dependence
weights) relies on that invariant: a perf-only change must reproduce the
exact SWAP sequence of the snapshot.  This suite pins, for every router in
the registry and three pinned cases (a small QUEKO and a QASMBench circuit on
a 5x5 grid, plus the first perf-smoke QUEKO instance on Sherbrooke, which
makes LightSABRE's release valve fire), the

* SHA-256 hash of the ordered SWAP sequence (physical qubit pairs),
* SHA-256 hash of the full emitted gate sequence,
* routed depth, and
* inserted SWAP count

against JSON files under ``tests/data/golden/``.  Any mismatch means routed
output changed: either a genuine regression, or an intentional
behaviour-changing router change.

Updating the snapshots
----------------------

Only regenerate after an *intentional* routing-behaviour change (never to
make a performance PR pass -- perf changes must keep them green)::

    PYTHONPATH=src python tests/routing/test_golden.py --update-golden

then commit the rewritten ``tests/data/golden/*.json`` together with the
change that justified them, and mention the regeneration in the PR.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.api import CompileRequest, compile as api_compile, router_names
from repro.benchgen.qasmbench import qft_circuit
from repro.benchgen.queko import generate_queko_circuit
from repro.hardware.backends import sherbrooke
from repro.hardware.topologies import grid_topology
from repro.routing.engine import RoutingEngine

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "data" / "golden"

#: Pinned seed used for every snapshot request.
GOLDEN_SEED = 0


@lru_cache(maxsize=None)
def golden_cases():
    """The pinned snapshot cases: name -> (circuit, backend name, backend)."""
    grid = grid_topology(5, 5)
    queko = generate_queko_circuit(
        grid_topology(4, 4), depth=8, seed=11, name="golden-queko-4x4-d8"
    ).circuit
    # The first instance of the perf-smoke fixture (repro.analysis.perf_trajectory).
    smoke = generate_queko_circuit(
        grid_topology(6, 9, name="sycamore-54-grid"), depth=5, seed=5 * 37,
        name="perf-smoke-d5-0",
    ).circuit
    return {
        "queko-4x4-d8": (queko, "grid-5x5", grid),
        "qasmbench-qft8": (qft_circuit(8), "grid-5x5", grid),
        "perf-smoke-d5-0": (smoke, "sherbrooke", sherbrooke()),
    }


def _sequence_hash(items) -> str:
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode())
    return digest.hexdigest()


def route_snapshot(case_name: str, router: str) -> dict:
    """Route the pinned case with ``router`` and summarise the routed output."""
    circuit, _, backend = golden_cases()[case_name]
    result = api_compile(
        CompileRequest(
            circuit=circuit,
            backend=backend,
            router=router,
            seed=GOLDEN_SEED,
        )
    )
    routed = result.routed_circuit
    swaps = [gate.qubits for gate in routed if gate.name == "swap"]
    return {
        "swap_hash": _sequence_hash(swaps),
        "gates_hash": _sequence_hash(
            (g.name, g.qubits, g.params) for g in routed
        ),
        "depth": result.routed_depth,
        "swaps": len(swaps),
    }


def build_golden_record(case_name: str) -> dict:
    return {
        "circuit": case_name,
        "backend": golden_cases()[case_name][1],
        "seed": GOLDEN_SEED,
        "routers": {
            router: route_snapshot(case_name, router)
            for router in sorted(router_names())
        },
    }


def load_golden(circuit_name: str) -> dict:
    path = GOLDEN_DIR / f"{circuit_name}.json"
    if not path.exists():
        pytest.fail(
            f"missing golden snapshot {path}; regenerate with "
            "`PYTHONPATH=src python tests/routing/test_golden.py --update-golden`"
        )
    return json.loads(path.read_text())


CIRCUIT_NAMES = sorted(golden_cases())


@pytest.mark.parametrize("circuit_name", CIRCUIT_NAMES)
def test_snapshot_covers_every_registered_router(circuit_name):
    """Adding (or renaming) a router must come with a snapshot regen."""
    golden = load_golden(circuit_name)
    assert sorted(golden["routers"]) == sorted(router_names())


@pytest.mark.parametrize("circuit_name", CIRCUIT_NAMES)
@pytest.mark.parametrize("router", sorted(router_names()))
def test_routed_output_matches_golden(circuit_name, router):
    golden = load_golden(circuit_name)["routers"].get(router)
    if golden is None:
        pytest.fail(f"router {router!r} missing from golden {circuit_name}")
    snapshot = route_snapshot(circuit_name, router)
    assert snapshot == golden, (
        f"{router} routed output diverged from the golden snapshot on "
        f"{circuit_name}: {snapshot} != {golden}.  If this change is an "
        "intentional behaviour change, regenerate with --update-golden "
        "(see the module docstring); a performance-only change must not "
        "get here."
    )


def test_release_valve_fires_on_the_perf_smoke_case(monkeypatch):
    """The perf-smoke snapshot pins LightSABRE's release valve, not only its cost."""
    fired = []
    release = RoutingEngine._release_valve_swap

    def counting_release(self, state):
        fired.append(self.name)
        return release(self, state)

    monkeypatch.setattr(RoutingEngine, "_release_valve_swap", counting_release)
    circuit, _, backend = golden_cases()["perf-smoke-d5-0"]
    api_compile(
        CompileRequest(circuit=circuit, backend=backend, router="lightsabre", seed=GOLDEN_SEED),
        cache=False,
    )
    assert fired and set(fired) == {"lightsabre"}


def update_golden() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for circuit_name in CIRCUIT_NAMES:
        record = build_golden_record(circuit_name)
        path = GOLDEN_DIR / f"{circuit_name}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--update-golden" in sys.argv:
        update_golden()
    else:
        print(__doc__)
        sys.exit("pass --update-golden to regenerate the snapshots")
