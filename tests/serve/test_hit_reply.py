"""A served cache hit replies with exactly what a fresh compile serializes to.

``CompileService.handle_compile`` answers a hit with the stored payload as
is (:meth:`CompileCache.lookup_payload`), without rebuilding a result.  The
reply's ``result`` must therefore equal ``result_to_payload`` of the
``compile()`` that produced the entry -- as canonical JSON bytes and in the
routed-circuit digest -- for a memory hit and for a disk hit alike, and it
must agree with an uncached compile of the same request on everything but
wall-clock fields.  An entry that cannot be decoded is never served: it is
recomputed as a miss.
"""

import asyncio
import hashlib
import json

from repro.api import CompileRequest
from repro.api import compile as api_compile
from repro.api.cache import CompileCache, payload_digest, request_fingerprint
from repro.api.serialize import request_to_payload, result_to_payload
from repro.benchgen.qasmbench import qasmbench_circuit
from repro.serve import CompileService, ServeConfig

#: A QASM-carrying request (the e2ebench serve shape): decoding it parses
#: the writer's output, and its routed circuit carries float parameters.
REQUEST = CompileRequest(
    circuit=qasmbench_circuit("qft", 8), backend="ankaa3", router="sabre", seed=3
)


def wire_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


def routed_digest(payload: dict) -> str:
    routing = payload["routing"]
    layout = sorted((int(k), int(v)) for k, v in routing["initial_layout"].items())
    text = routing["routed_circuit"]["qasm"] + repr(layout)
    return hashlib.sha256(text.encode()).hexdigest()


def without_wall_clock(payload: dict) -> dict:
    payload = {k: v for k, v in payload.items() if k != "pass_timings"}
    payload["routing"] = {
        k: v for k, v in payload["routing"].items() if k != "runtime_seconds"
    }
    payload["metrics"] = {
        k: v for k, v in payload["metrics"].items() if k != "runtime_seconds"
    }
    return payload


def serve(cache: CompileCache, body: dict):
    async def scenario():
        service = CompileService(ServeConfig(workers=1), cache=cache)
        await service.start()
        try:
            return await service.handle("POST", "/v1/compile", {}, body)
        finally:
            await service.stop()

    return asyncio.run(scenario())


def warm_store(directory) -> dict:
    """Compile ``REQUEST`` into a disk-backed cache; its serialized result."""
    cache = CompileCache(directory=directory)
    return result_to_payload(api_compile(REQUEST, cache=cache))


def check_reply(response, expected: dict) -> None:
    assert response.status == 200
    assert response.body["cached"] is True
    assert response.body["fingerprint"] == request_fingerprint(REQUEST)
    served = response.body["result"]
    assert wire_bytes(served) == wire_bytes(expected)
    assert routed_digest(served) == routed_digest(expected)
    fresh = result_to_payload(api_compile(REQUEST, cache=False))
    assert wire_bytes(without_wall_clock(served)) == wire_bytes(without_wall_clock(fresh))
    assert routed_digest(served) == routed_digest(fresh)


def test_memory_hit_reply_equals_the_fresh_compile(tmp_path):
    cache = CompileCache(directory=tmp_path)
    expected = result_to_payload(api_compile(REQUEST, cache=cache))
    response = serve(cache, request_to_payload(REQUEST))
    check_reply(response, expected)
    assert cache.stats["memory_hits"] == 1
    assert cache.stats["disk_hits"] == 0


def test_disk_hit_reply_equals_the_fresh_compile(tmp_path):
    expected = warm_store(tmp_path)
    cache = CompileCache(directory=tmp_path)  # a new process: cold memory tier
    response = serve(cache, request_to_payload(REQUEST))
    check_reply(response, expected)
    assert cache.stats["disk_hits"] == 1
    # the promoted entry now answers from memory with the same bytes
    again = serve(cache, request_to_payload(REQUEST))
    check_reply(again, expected)
    assert cache.stats["memory_hits"] == 1


def test_undecodable_disk_entry_is_recomputed_as_a_miss(tmp_path):
    expected = warm_store(tmp_path)
    fingerprint = request_fingerprint(REQUEST)
    path = tmp_path / fingerprint[:2] / f"{fingerprint}.json"
    envelope = json.loads(path.read_text())
    # Valid JSON with a matching integrity digest, but a routed circuit that
    # no longer parses: only decoding the payload can catch it.
    envelope["payload"]["routing"]["routed_circuit"]["qasm"] = "OPENQASM 2.0;\nqreg q[;\n"
    envelope["digest"] = payload_digest(envelope["payload"])
    path.write_text(json.dumps(envelope, sort_keys=True))

    cache = CompileCache(directory=tmp_path)
    response = serve(cache, request_to_payload(REQUEST))
    assert response.status == 200
    assert response.body["cached"] is False
    assert cache.stats["disk_hits"] == 0
    assert cache.stats["memory_hits"] == 0
    served = response.body["result"]
    assert wire_bytes(without_wall_clock(served)) == wire_bytes(without_wall_clock(expected))
    assert routed_digest(served) == routed_digest(expected)
    # the recomputed result replaced the bad entry: the next hit serves it
    again = serve(cache, request_to_payload(REQUEST))
    assert again.body["cached"] is True
    assert wire_bytes(again.body["result"]) == wire_bytes(served)
