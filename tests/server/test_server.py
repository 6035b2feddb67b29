"""HTTP behaviour of the evaluation server: the memoization ladder,
backpressure, and drain — all through real sockets on loopback."""

import asyncio
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.server import EvalServer, ServerConfig
from repro.server.loadgen import Client, spawn_server

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
        checker = Client(*server.address)
        health = await checker.request("GET", "/healthz")
        await checker.close()
        assert json.loads(health.body)["status"] == "draining"
        other = Client(*server.address)
        rejected = await post(other, dict(SYNTH, seed=9))
        assert rejected.status == 429
        assert b"draining" in rejected.body
        finished = await inflight
        assert finished.status == 200
        await other.close()
    serve(inline_config(allow_delay=True), scenario)



def test_drain_grace_bounds_the_shutdown():
    """``repro serve --drain-grace 1`` SIGTERMed while a 4 s evaluation
    runs stops waiting when the grace expires: the connection closes
    unanswered and the process (pool child included) exits 0."""
    process, host, port = spawn_server(["--drain-grace", "1",
                                        "--allow-delay"])
    try:
        body = json.dumps(dict(SYNTH, delay_ms=4000)).encode()
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(b"POST /v1/evaluate HTTP/1.1\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body) + body)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:  # wait for admission
                health = http.client.HTTPConnection(host, port, timeout=10)
                health.request("GET", "/healthz")
                inflight = json.loads(health.getresponse().read())["inflight"]
                health.close()
                if inflight:
                    break
                time.sleep(0.05)
            process.send_signal(signal.SIGTERM)
            sent = time.monotonic()
            code = process.wait(timeout=30)
            elapsed = time.monotonic() - sent
            assert sock.recv(64) == b""
        assert json.loads(process.stdout.readline())["event"] == "drained"
        assert code == 0
        assert elapsed < 2.5
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
        process.stdout.close()


def test_sigterm_with_an_idle_keepalive_connection_exits_cleanly():
    """A keep-alive connection left idle after its answer ends with the
    server: SIGTERM exits 0 with the ``drained`` line, and its handler
    finishes on the closed transport instead of being cancelled
    mid-read, which printed a traceback to stderr."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--executor", "inline"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    try:
        listening = json.loads(process.stdout.readline())
        assert listening["event"] == "listening"
        with socket.create_connection((listening["host"], listening["port"]),
                                      timeout=30) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            reply = b""
            while b"\r\n\r\n" not in reply:
                chunk = sock.recv(4096)
                assert chunk, "the server closed before answering"
                reply += chunk
            assert reply.startswith(b"HTTP/1.1 200")
            assert b"Connection: keep-alive" in reply
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=30)
        assert process.returncode == 0
        assert json.loads(out.splitlines()[-1])["event"] == "drained"
        assert "Traceback" not in err, err
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate(timeout=30)


def test_pool_executor_serves():
    """The production executor: evaluations run in forked pool
    workers, and concurrent distinct requests each get their own."""
    async def scenario(server, client):
        others = [Client(*server.address) for _ in range(3)]
        payloads = [dict(SYNTH, seed=i) for i in range(4)]
        samples = await asyncio.gather(*(
            post(c, p, timeout=60.0)
            for c, p in zip([client, *others], payloads)))
        assert [s.status for s in samples] == [200] * 4
        assert [s.headers["x-cache"] for s in samples] == ["computed"] * 4
        assert len({s.headers["x-request-key"] for s in samples}) == 4
        for other in others:
            await other.close()
    serve(ServerConfig(executor="pool", max_workers=2), scenario)


@pytest.mark.parametrize("executor,max_workers",
                         [("pool", 2), ("inline", 2), ("pool", 1)])
def test_staggered_misses_use_every_worker(executor, max_workers):
    """A miss that arrives while another evaluates starts on a free
    worker at once; with one worker it waits for the slot."""
    async def scenario(server, client):
        loop = asyncio.get_running_loop()
        b_client, c_client = Client(*server.address), \
            Client(*server.address)

        async def answered(sender, payload):
            sample = await post(sender, payload, timeout=30.0)
            return sample.status, loop.time()

        try:
            a = asyncio.ensure_future(
                answered(client, dict(SYNTH, delay_ms=1500)))
            await asyncio.sleep(0.3)
            b = await answered(b_client, dict(SYNTH, seed=101))
            c = await answered(c_client, dict(SYNTH, seed=102))
            return await a, b, c
        finally:
            await b_client.close()
            await c_client.close()

    (a_status, a_at), (b_status, b_at), (c_status, c_at) = serve(
        ServerConfig(executor=executor, max_workers=max_workers,
                     allow_delay=True), scenario)
    assert a_status == b_status == c_status == 200
    if max_workers == 2:
        assert b_at < a_at and c_at < a_at
    else:
        assert b_at > a_at


def test_failed_launch_answers_500_and_frees_its_key(monkeypatch):
    """A fork that fails (EAGAIN) fails its one request; the key, the
    in-flight map and the drain are left as if it had never run."""
    from repro.runner.pool import ProcessTaskPool
    launch = ProcessTaskPool._launch
    failed = []

    def launch_failing_once(self, item):
        if not failed:
            failed.append(item.key)
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return launch(self, item)

    monkeypatch.setattr(ProcessTaskPool, "_launch", launch_failing_once)

    async def scenario(server, client):
        first = await post(client, SYNTH, timeout=30.0)
        assert first.status == 500
        assert b"BlockingIOError" in first.body
        retry = await post(client, SYNTH, timeout=30.0)
        assert retry.status == 200
        assert retry.headers["x-cache"] == "computed"
        health = await client.request("GET", "/healthz")
        assert json.loads(health.body)["inflight"] == 0
        server.begin_drain()
        await asyncio.wait_for(server.serve_until_drained(), 5.0)
        assert len(failed) == 1
    serve(ServerConfig(executor="pool", request_timeout=5), scenario)


#: the server's stream reader buffers at most this much of one line
_STREAM_LIMIT = 1 << 16

_UNFRAMEABLE = [
    (b"GARBAGE\r\n", 400),
    (b"POST /v1/evaluate HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
    (b"POST /v1/evaluate HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
    (b"POST /v1/evaluate HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n",
     413),
    # 33 lines of 1012 bytes pass the 32 KiB header limit on the last
    (b"GET /healthz HTTP/1.1\r\n"
     + b"".join(b"X-Pad-%02d: %s\r\n" % (i, b"a" * 1000)
                for i in range(33)), 400),
    (b"GET /healthz HTTP/1.1\r\nX-Pad: "
     + b"a" * (_STREAM_LIMIT + 1 - len(b"X-Pad: ")), 400),
]


def test_unframeable_requests_get_their_status_and_close():
    """Each is answered with its status and ``Connection: close``, then
    the connection ends.  Every case ends where the server stops
    reading: unread bytes would turn its close into a reset, which can
    drop the answer before the client reads it."""
    async def scenario(server, client):
        for raw, status in _UNFRAMEABLE:
            reader, writer = await asyncio.open_connection(*server.address)
            writer.write(raw)
            await writer.drain()
            response = await asyncio.wait_for(reader.read(), 10.0)
            writer.close()
            await writer.wait_closed()
            head, _, body = response.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            assert lines[0].split()[1] == str(status), (raw[:40], lines)
            assert "Connection: close" in lines
            assert "error" in json.loads(body)
        counters = server.registry.counter_values()
        assert counters["server.http.4xx"] == len(_UNFRAMEABLE)
        assert counters["server.http.requests"] == len(_UNFRAMEABLE)
    serve(inline_config(), scenario)
