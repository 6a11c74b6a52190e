"""Handler-level tests for the compile service core (no sockets).

Every test drives :meth:`CompileService.handle` directly inside a fresh
event loop -- the socket-free entry point the HTTP front-end also calls --
so the whole service contract (coalescing, caching, jobs, drain, fault
injection) is exercised without binding a single port.  The one loopback
smoke test lives in ``test_http_loopback.py``.
"""

import asyncio

import pytest

from repro.api import CompileRequest, FaultPlan, compile_many
from repro.api import compile as api_compile
from repro.api.cache import request_fingerprint
from repro.api.serialize import result_to_payload
from repro.serve import CompileService, ServeConfig


def run(coro):
    return asyncio.run(coro)


def make_body(seed=0, router="greedy", generate="ghz:6", **extra):
    body = {"generate": generate, "backend": "ankaa3", "router": router, "seed": seed}
    body.update(extra)
    return body


def normalize(result_payload: dict) -> dict:
    """A result payload minus its wall-clock fields.

    Pass timings and the recorded routing runtime are the only
    non-deterministic payload fields; everything else -- routed QASM text,
    layouts, swaps, depth, metrics -- must match bit for bit.
    """
    payload = {k: v for k, v in result_payload.items() if k != "pass_timings"}
    payload["routing"] = {
        k: v for k, v in result_payload["routing"].items() if k != "runtime_seconds"
    }
    payload["metrics"] = {
        k: v for k, v in result_payload["metrics"].items() if k != "runtime_seconds"
    }
    return payload


async def with_service(config, scenario):
    service = CompileService(config)
    await service.start()
    try:
        return await scenario(service)
    finally:
        await service.stop()


class TestCompileEndpoint:
    def test_served_result_is_bit_identical_to_direct_compile(self):
        async def scenario(service):
            return await service.handle("POST", "/v1/compile", {}, make_body())

        response = run(with_service(ServeConfig(), scenario))
        assert response.status == 200
        request = CompileRequest(generate="ghz:6", backend="ankaa3", router="greedy", seed=0)
        direct = result_to_payload(api_compile(request, cache=False))
        assert normalize(response.body["result"]) == normalize(direct)
        assert response.body["fingerprint"] == request_fingerprint(request)

    def test_second_identical_request_is_a_cache_hit_with_identical_payload(self):
        async def scenario(service):
            first = await service.handle("POST", "/v1/compile", {}, make_body())
            second = await service.handle("POST", "/v1/compile", {}, make_body())
            return first, second, service.metrics.counter("cache_hits")

        first, second, hits = run(with_service(ServeConfig(), scenario))
        assert first.body["cached"] is False
        assert second.body["cached"] is True
        assert hits == 1
        # A cache hit replays the stored payload: identical including timings.
        assert second.body["result"] == first.body["result"]

    def test_malformed_body_is_a_structured_400(self):
        async def scenario(service):
            return await service.handle("POST", "/v1/compile", {}, {"router": "nope"})

        response = run(with_service(ServeConfig(), scenario))
        assert response.status == 400
        assert response.body["ok"] is False
        assert "message" in response.body["error"]

    def test_unknown_path_is_404_and_wrong_method_is_405(self):
        async def scenario(service):
            missing = await service.handle("GET", "/v2/compile", {}, None)
            wrong = await service.handle("GET", "/v1/compile", {}, None)
            return missing, wrong

        missing, wrong = run(with_service(ServeConfig(), scenario))
        assert missing.status == 404
        assert wrong.status == 405


class TestCoalescing:
    def test_identical_inflight_requests_share_one_execution(self):
        # A delay fault keeps the first request in flight long enough for
        # three identical siblings to arrive: all four must resolve from ONE
        # pipeline execution with byte-identical payloads.
        request = CompileRequest(generate="ghz:6", backend="ankaa3", router="greedy", seed=0)
        plan = FaultPlan().inject(
            request_fingerprint(request), "delay", delay_seconds=0.2
        )

        async def scenario(service):
            calls = [
                service.handle("POST", "/v1/compile", {}, make_body())
                for _ in range(4)
            ]
            responses = await asyncio.gather(*calls)
            return responses, service.metrics_payload()

        responses, metrics = run(
            with_service(ServeConfig(workers=2, queue_size=16, faults=plan), scenario)
        )
        assert [r.status for r in responses] == [200] * 4
        payloads = [r.body["result"] for r in responses]
        assert all(p == payloads[0] for p in payloads[1:])
        assert metrics["counters"]["executions"] == 1
        assert metrics["counters"]["coalesced"] == 3
        assert metrics["counters"].get("cache_hits", 0) == 0

    def test_different_requests_do_not_coalesce(self):
        async def scenario(service):
            responses = await asyncio.gather(
                service.handle("POST", "/v1/compile", {}, make_body(seed=0)),
                service.handle("POST", "/v1/compile", {}, make_body(seed=1)),
            )
            return responses, service.metrics.counter("coalesced")

        responses, coalesced = run(
            with_service(ServeConfig(workers=2, queue_size=16), scenario)
        )
        assert [r.status for r in responses] == [200, 200]
        assert coalesced == 0


class TestJobs:
    def test_async_job_lifecycle(self):
        async def scenario(service):
            accepted = await service.handle(
                "POST", "/v1/compile", {"async": "1"}, make_body()
            )
            assert accepted.status == 202
            job_id = accepted.body["job"]["id"]
            for _ in range(500):
                polled = await service.handle("GET", f"/v1/jobs/{job_id}", {}, None)
                if polled.body["job"]["state"] in ("done", "failed"):
                    return accepted, polled
                await asyncio.sleep(0.01)
            raise AssertionError("job never finished")

        accepted, polled = run(with_service(ServeConfig(), scenario))
        assert accepted.body["job"]["state"] in ("queued", "running")
        assert polled.body["job"]["state"] == "done"
        assert polled.body["job"]["response"]["ok"] is True
        assert polled.body["job"]["response"]["result"]["metrics"]["router"] == "greedy"

    def test_unknown_job_is_404(self):
        async def scenario(service):
            return await service.handle("GET", "/v1/jobs/job-999999", {}, None)

        assert run(with_service(ServeConfig(), scenario)).status == 404

    def test_job_ids_are_sequential_and_deterministic(self):
        async def scenario(service):
            a = await service.handle("POST", "/v1/compile", {"async": "1"}, make_body(seed=5))
            b = await service.handle("POST", "/v1/compile", {"async": "1"}, make_body(seed=6))
            return a.body["job"]["id"], b.body["job"]["id"]

        assert run(with_service(ServeConfig(), scenario)) == ("job-000001", "job-000002")


class TestBatchEndpoint:
    def test_batch_matches_direct_compile_many(self):
        body = {"requests": [make_body(seed=s) for s in range(3)]}

        async def scenario(service):
            return await service.handle("POST", "/v1/batch", {}, body)

        response = run(with_service(ServeConfig(), scenario))
        assert response.status == 200
        assert response.body["ok"] is True
        requests = [
            CompileRequest(generate="ghz:6", backend="ankaa3", router="greedy", seed=s)
            for s in range(3)
        ]
        direct = compile_many(requests, cache=False)
        for slot, expected in zip(response.body["results"], direct.results):
            assert normalize(slot["result"]) == normalize(result_to_payload(expected))

    def test_batch_rejects_malformed_entries_with_400(self):
        async def scenario(service):
            return await service.handle(
                "POST", "/v1/batch", {}, {"requests": [{"router": "nope"}]}
            )

        assert run(with_service(ServeConfig(), scenario)).status == 400


class TestDrain:
    def test_drain_finishes_inflight_rejects_new_and_signals_shutdown(self):
        async def scenario(service):
            pending = asyncio.ensure_future(
                service.handle("POST", "/v1/compile", {}, make_body())
            )
            await asyncio.sleep(0)  # admit the request before draining
            drain = await service.handle("POST", "/admin/drain", {}, None)
            rejected = await service.handle("POST", "/v1/compile", {}, make_body(seed=9))
            finished = await asyncio.wait_for(pending, timeout=30)
            await asyncio.wait_for(service.wait_for_shutdown(), timeout=30)
            health = await service.handle("GET", "/healthz", {}, None)
            return drain, rejected, finished, health

        drain, rejected, finished, health = run(with_service(ServeConfig(), scenario))
        assert drain.status == 202
        assert drain.body["draining"] is True
        assert rejected.status == 503
        assert finished.status == 200  # in-flight work completed, not dropped
        assert health.body["status"] == "draining"

    def test_drain_is_idempotent(self):
        async def scenario(service):
            first = await service.handle("POST", "/admin/drain", {}, None)
            second = await service.handle("POST", "/admin/drain", {}, None)
            await asyncio.wait_for(service.wait_for_shutdown(), timeout=10)
            return first, second

        first, second = run(with_service(ServeConfig(), scenario))
        assert first.status == second.status == 202


class TestHealthzAndMetrics:
    def test_healthz_reports_version_from_single_source(self):
        from repro._version import __version__

        async def scenario(service):
            return await service.handle("GET", "/healthz", {}, None)

        body = run(with_service(ServeConfig(workers=3), scenario)).body
        assert body["version"] == __version__
        assert body["status"] == "ok"
        assert body["workers"] == 3
        assert body["queue"]["maxsize"] == 64

    def test_metrics_reuses_the_cache_info_helper(self):
        async def scenario(service):
            await service.handle("POST", "/v1/compile", {}, make_body())
            metrics = await service.handle("GET", "/metrics", {}, None)
            return metrics.body, service.cache.info()

        metrics, cache_info = run(with_service(ServeConfig(), scenario))
        # Same helper, same keys: /metrics embeds CompileCache.info() verbatim.
        assert set(metrics["cache"]) == set(cache_info)
        assert metrics["cache"]["stats"]["stores"] == 1
        assert metrics["gauges"]["queue_depth"] == 0
        assert metrics["latency_seconds"]["pass_route"]["count"] == 1

    def test_metrics_is_json_serializable(self):
        import json

        async def scenario(service):
            await service.handle("POST", "/v1/compile", {}, make_body())
            return await service.handle("GET", "/metrics", {}, None)

        json.dumps(run(with_service(ServeConfig(), scenario)).body)


class TestCacheHitsAreNotExecutions:
    """Regression: cache hits never count as executions or pass timings."""

    def test_all_hit_batches_leave_executions_and_pass_counts_alone(self):
        # One real compile, then two batches answered entirely from the cache.
        async def scenario(service):
            compiled = await service.handle("POST", "/v1/compile", {}, make_body())
            batches = [
                await service.handle(
                    "POST", "/v1/batch", {}, {"requests": [make_body(), make_body()]}
                )
                for _ in range(2)
            ]
            return compiled, batches, service.metrics_payload()

        compiled, batches, metrics = run(with_service(ServeConfig(), scenario))
        assert compiled.body["cached"] is False
        assert [b.body["summary"]["cache"]["hits"] for b in batches] == [2, 2]
        assert metrics["counters"]["executions"] == 1
        assert metrics["latency_seconds"]["pass_route"]["count"] == 1

    def test_batch_with_a_fresh_slot_counts_once_and_observes_only_it(self):
        async def scenario(service):
            await service.handle("POST", "/v1/compile", {}, make_body(seed=0))
            await service.handle(
                "POST",
                "/v1/batch",
                {},
                {"requests": [make_body(seed=0), make_body(seed=1)]},
            )
            return service.metrics_payload()

        metrics = run(with_service(ServeConfig(), scenario))
        assert metrics["counters"]["executions"] == 2
        assert metrics["latency_seconds"]["pass_route"]["count"] == 2

    def test_compile_job_reports_a_hit_found_at_execution_as_cached(self):
        request = CompileRequest(generate="ghz:6", backend="ankaa3", router="greedy", seed=0)

        async def scenario(service):
            service.cache.store(request_fingerprint(request), api_compile(request, cache=False))
            return service._run_compile(request)

        status, body, batch = run(with_service(ServeConfig(), scenario))
        assert status == 200
        assert body["cached"] is True
        assert batch.cached_slots == {0}


class TestFaultInjection:
    """Faults through the service path surface as structured HTTP bodies.

    Mirrors ``tests/api/test_batch_failures.py``: an injected fault must
    never drop the connection -- it becomes a JSON error body with the
    ``CompileError.summary()`` shape -- and a killed worker mid-batch must
    leave every sibling slot bit-identical to a clean run.
    """

    def test_injected_exception_is_a_structured_500(self):
        plan = FaultPlan().inject("*", "exception")

        async def scenario(service):
            response = await service.handle("POST", "/v1/compile", {}, make_body())
            return response, service.metrics.counter("failures")

        response, failures = run(
            with_service(ServeConfig(faults=plan), scenario)
        )
        assert response.status == 500
        assert response.body["ok"] is False
        assert response.body["error"]["error"] == "InjectedFault"
        assert response.body["error"]["phase"] == "inject"
        assert failures == 1

    def test_timeout_through_service_is_a_structured_500(self):
        plan = FaultPlan().inject("*", "delay", delay_seconds=30.0)

        async def scenario(service):
            return await service.handle("POST", "/v1/compile", {}, make_body())

        response = run(
            with_service(ServeConfig(faults=plan, timeout=0.5), scenario)
        )
        assert response.status == 500
        assert response.body["error"]["error"] == "Timeout"
        assert response.body["error"]["phase"] == "worker"

    def test_killed_worker_mid_batch_leaves_siblings_bit_identical(self):
        # Index targets count positions inside ONE batch, so "#1" kills the
        # middle slot of this three-request batch and nothing else.
        plan = FaultPlan().inject(1, "kill")
        body = {"requests": [make_body(seed=s) for s in range(3)]}

        async def scenario(service):
            return await service.handle("POST", "/v1/batch", {}, body)

        response = run(with_service(ServeConfig(faults=plan), scenario))
        assert response.status == 200  # a served batch with failed slots is still a batch
        slots = response.body["results"]
        assert slots[1]["ok"] is False
        assert slots[1]["error"]["error"] == "WorkerCrash"
        assert slots[1]["error"]["phase"] == "worker"
        requests = [
            CompileRequest(generate="ghz:6", backend="ankaa3", router="greedy", seed=s)
            for s in range(3)
        ]
        clean = compile_many(requests, cache=False)
        for index in (0, 2):
            assert slots[index]["ok"] is True
            assert normalize(slots[index]["result"]) == normalize(
                result_to_payload(clean.results[index])
            )

    def test_retry_recovers_an_attempt_zero_fault(self):
        plan = FaultPlan().inject("*", "exception", attempt=0)

        async def scenario(service):
            return await service.handle("POST", "/v1/compile", {}, make_body())

        response = run(
            with_service(ServeConfig(faults=plan, retries=1), scenario)
        )
        assert response.status == 200
        assert response.body["ok"] is True


class TestConfigValidation:
    def test_bad_config_values_raise_early(self):
        with pytest.raises(ValueError):
            CompileService(ServeConfig(workers=0))
        with pytest.raises(ValueError):
            CompileService(ServeConfig(queue_size=0))
        with pytest.raises(ValueError):
            CompileService(ServeConfig(timeout=0))
        with pytest.raises(ValueError):
            CompileService(ServeConfig(retries=-1))
