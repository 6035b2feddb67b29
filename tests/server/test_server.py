"""HTTP behaviour of the evaluation server: the memoization ladder,
backpressure, and drain — all through real sockets on loopback."""

import asyncio
import json

import pytest

from repro.server import EvalServer, ServerConfig
from repro.server.loadgen import Client

SYNTH = {"synthetic": True, "cycles": 1500,
         "policies": ["original", "lut-4"]}


def serve(config, scenario):
    """Run ``scenario(server, client)`` against a live server."""
    async def _main():
        server = EvalServer(config)
        host, port = await server.start()
        client = Client(host, port)
        try:
            return await scenario(server, client)
        finally:
            await client.close()
            await server.close()
    return asyncio.run(_main())


def inline_config(**overrides):
    base = dict(executor="inline", max_workers=2)
    base.update(overrides)
    return ServerConfig(**base)


def post(client, payload, **kwargs):
    return client.request("POST", "/v1/evaluate",
                          json.dumps(payload).encode(), **kwargs)


def test_evaluate_then_cache_then_304():
    async def scenario(server, client):
        first = await post(client, SYNTH)
        assert first.status == 200
        assert first.headers["x-cache"] == "computed"
        body = json.loads(first.body)
        assert body["report"].startswith("Figure 4")
        assert "original|none" in body["cells"]

        second = await post(client, SYNTH)
        assert second.status == 200
        assert second.headers["x-cache"] == "hit"
        assert second.body == first.body

        third = await post(client, SYNTH,
                           headers={"If-None-Match":
                                    first.headers["etag"]})
        assert third.status == 304
        assert third.body == b""
        assert third.headers["etag"] == first.headers["etag"]

        counters = server.registry.counter_values()
        assert counters["server.executions"] == 1
        assert counters["server.cache.hits"] == 1
        assert counters["server.http.304"] == 1
    serve(inline_config(), scenario)


def test_equivalent_spellings_share_cache_entry():
    async def scenario(server, client):
        a = await post(client, dict(SYNTH, policies=["original", "lut-4"]))
        b = await post(client, dict(SYNTH, policies=["lut-4", "original",
                                                     "lut-4"]))
        assert a.status == b.status == 200
        assert b.headers["x-cache"] == "hit"
        assert a.body == b.body
    serve(inline_config(), scenario)


def test_provenance_counts_the_requests_own_simulations(tmp_path):
    """A cold request reports the simulations it ran; a second key over
    the same programs replays them from the shared trace cache."""
    request = {"fu": "ialu", "workloads": ["compress", "li"], "scale": 1,
               "policies": ["original", "lut-4"]}

    async def scenario(server, client):
        cold = await post(client, request, timeout=120.0)
        assert cold.status == 200
        assert cold.headers["x-simulations"] == "2"
        assert cold.headers["x-trace-cache"] == "0 hits 2 misses"
        warm = await post(client, dict(request, stats="paper"),
                          timeout=120.0)
        assert warm.status == 200
        assert warm.headers["x-request-key"] != cold.headers["x-request-key"]
        assert warm.headers["x-simulations"] == "0"
        assert warm.headers["x-trace-cache"] == "2 hits 0 misses"
        assert server.registry.counter_values()["server.simulations"] == 2
    serve(inline_config(cache_dir=str(tmp_path)), scenario)


def test_bad_requests():
    async def scenario(server, client):
        bad_json = await client.request("POST", "/v1/evaluate", b"{nope")
        assert bad_json.status == 400
        bad_field = await post(client, {"policies": ["nope"]})
        assert bad_field.status == 400
        assert b"unknown policy kind" in bad_field.body
        retired_engine = await post(client, dict(SYNTH, engine="auto"))
        assert retired_engine.status == 400
        assert b"batch, object" in retired_engine.body
        not_found = await client.request("GET", "/nope")
        assert not_found.status == 404
        wrong_method = await client.request("GET", "/v1/evaluate")
        assert wrong_method.status == 405
        wrong_method2 = await client.request("POST", "/healthz", b"")
        assert wrong_method2.status == 405
        delay = await post(client, dict(SYNTH, delay_ms=10))
        assert delay.status == 400  # server not started with --allow-delay
    serve(inline_config(), scenario)


def test_policy_allowlist():
    async def scenario(server, client):
        refused = await post(client, dict(SYNTH, policies=["full-ham"]))
        assert refused.status == 400
        assert b"not served here" in refused.body
        allowed = await post(client, SYNTH)
        assert allowed.status == 200
    serve(inline_config(allowed_policies=("lut-4",)), scenario)


def test_metrics_endpoints():
    async def scenario(server, client):
        await post(client, SYNTH)
        health = await client.request("GET", "/healthz")
        assert health.status == 200
        assert json.loads(health.body)["status"] == "ok"
        text = await client.request("GET", "/metrics")
        assert text.status == 200
        assert b"server.executions" in text.body
        snap = await client.request("GET", "/metrics.json")
        payload = json.loads(snap.body)
        assert payload["counters"]["server.executions"] == 1
        assert "coalesce_ratio" in payload["derived"]
    serve(inline_config(), scenario)


def test_queue_full_returns_429_with_retry_after():
    async def scenario(server, client):
        slow = post(client, dict(SYNTH, delay_ms=1000), timeout=30.0)
        task = asyncio.ensure_future(slow)
        await asyncio.sleep(0.2)  # the slow evaluation is now in flight
        other = Client(*server.address)
        rejected = await post(other, dict(SYNTH, seed=7))
        assert rejected.status == 429
        assert "retry-after" in rejected.headers
        assert b"queue full" in rejected.body
        first = await task
        assert first.status == 200
        await other.close()
        assert server.registry.counter_values()[
            "server.rejected.queue_full"] == 1
    serve(inline_config(queue_limit=1, allow_delay=True), scenario)


def test_request_timeout_returns_504():
    async def scenario(server, client):
        sample = await post(client, dict(SYNTH, delay_ms=2000),
                            timeout=30.0)
        assert sample.status == 504
        assert server.registry.counter_values()["server.timeouts"] == 1
    serve(inline_config(request_timeout=0.2, allow_delay=True), scenario)


def test_failures_return_500_and_are_not_cached(monkeypatch):
    import repro.server.executor as executor_module
    calls = []

    def exploding(payload):
        calls.append(1)
        raise RuntimeError("boom")

    monkeypatch.setattr(executor_module, "evaluate_request", exploding)

    async def scenario(server, client):
        first = await post(client, SYNTH)
        assert first.status == 500
        assert b"boom" in first.body
        second = await post(client, SYNTH)
        assert second.status == 500
        # a failure must not poison the response cache: both attempts
        # really executed
        assert len(calls) == 2
        assert server.registry.counter_values()[
            "server.executions.failed"] == 2
    serve(inline_config(), scenario)


def test_drain_finishes_inflight_and_rejects_new():
    async def scenario(server, client):
        inflight = asyncio.ensure_future(
            post(client, dict(SYNTH, delay_ms=800), timeout=30.0))
        await asyncio.sleep(0.2)
        server.begin_drain()
        health = await Client(*server.address).request("GET", "/healthz")
        assert json.loads(health.body)["status"] == "draining"
        other = Client(*server.address)
        rejected = await post(other, dict(SYNTH, seed=9))
        assert rejected.status == 429
        assert b"draining" in rejected.body
        finished = await inflight
        assert finished.status == 200
        await other.close()
    serve(inline_config(allow_delay=True), scenario)


def test_pool_executor_serves_and_batches():
    """The production executor: evaluations run in forked pool workers,
    concurrent distinct requests ride one batch."""
    async def scenario(server, client):
        others = [Client(*server.address) for _ in range(3)]
        payloads = [dict(SYNTH, seed=i) for i in range(4)]
        samples = await asyncio.gather(*(
            post(c, p, timeout=60.0)
            for c, p in zip([client, *others], payloads)))
        assert [s.status for s in samples] == [200] * 4
        assert len({s.headers["x-request-key"] for s in samples}) == 4
        for other in others:
            await other.close()
        assert server.executor.batches >= 1
        assert server.executor.batched_items == 4
    serve(ServerConfig(executor="pool", max_workers=2), scenario)
