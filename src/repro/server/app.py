"""The asyncio evaluation server: steering-as-a-service.

A deliberately dependency-free HTTP/1.1 service on stdlib asyncio
streams.  The request path is a memoization ladder, cheapest rung
first, mirroring way-memoization in low-power caches — a hit must
bypass every heavier mechanism below it:

1. **fingerprint revalidation** — the ETag *is* the request key, so a
   matching ``If-None-Match`` answers ``304`` from the hash alone;
2. **response cache** — an LRU of rendered response bodies by key;
3. **single flight** — concurrent misses for one key coalesce onto one
   in-flight future; exactly one evaluation runs, every waiter gets
   the same bytes;
4. **trace cache** — the evaluation itself replays content-addressed
   recorded streams (and ``TraceCacheLock`` extends the single flight
   across server *processes* sharing a cache directory);
5. **simulation** — only a stream nobody anywhere has recorded yet.

Backpressure: admission is bounded by the number of distinct
evaluations in flight (coalesced waiters are free); past the limit the
server answers ``429`` with ``Retry-After``.  ``SIGTERM``/``SIGINT``
begin a graceful drain — in-flight work finishes and is delivered,
new evaluations are refused with ``429``.  Work still running when
``drain_grace`` expires is abandoned: every open connection is closed
unanswered and the server exits.

Every decision increments a counter or moves a gauge in a
:class:`~repro.telemetry.metrics.MetricsRegistry`, served at
``/metrics`` (table) and ``/metrics.json`` (merge-ready dict), so the
load harness and the future dashboard read the same numbers.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from .. import __version__
from ..telemetry import MetricsRegistry, format_metrics
from .executor import EvalExecutor, ExecutionError, build_programs
from .protocol import (EvalRequest, ProtocolError, etag_for, parse_request,
                       request_key)

MAX_BODY_BYTES = 1 << 20  # a request is a small JSON object
MAX_HEADER_BYTES = 32 * 1024
IDLE_TIMEOUT = 75.0  # keep-alive connections idle longer are dropped

#: histogram edges for request latency, in milliseconds
LATENCY_EDGES = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000,
                 10_000, 30_000)

_STATUS_TEXT = {
    200: "OK", 304: "Not Modified", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 504: "Gateway Timeout",
}


@dataclass
class ServerConfig:
    """Everything ``repro serve`` can turn."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = OS-assigned; the bound port is announced
    cache_dir: Optional[str] = None
    executor: str = "pool"
    max_workers: int = 2
    queue_limit: int = 64
    request_timeout: float = 300.0
    drain_grace: float = 30.0
    response_cache_entries: int = 256
    retry_after: float = 1.0
    allow_delay: bool = False  # honour the test-only delay_ms knob
    #: when non-empty, only these policy kinds may be evaluated — a
    #: deployment cap on per-request work ('original' is always allowed;
    #: it is the baseline every request carries)
    allowed_policies: Tuple[str, ...] = ()


@dataclass
class _HttpRequest:
    method: str
    path: str
    headers: Dict[str, str]
    body: bytes
    close: bool = False


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class EvalServer:
    """The evaluation service.  One instance per listening socket."""

    def __init__(self, config: Optional[ServerConfig] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.config = config or ServerConfig()
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.executor = EvalExecutor(self.config.executor,
                                     self.config.max_workers,
                                     self.config.request_timeout)
        #: single flight: each key being evaluated -> the leader's future
        self._inflight: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        self._responses: "OrderedDict[str, bytes]" = OrderedDict()
        self._key_cache: "OrderedDict[Tuple, str]" = OrderedDict()
        self._server: Optional[asyncio.base_events.Server] = None
        self._draining = asyncio.Event()
        self._drained = asyncio.Event()
        self._open_requests = 0
        self._writers: Set[asyncio.StreamWriter] = set()
        self._handlers: Set["asyncio.Task[None]"] = set()
        self.address: Optional[Tuple[str, int]] = None

        reg = self.registry
        self._c_requests = reg.counter("server.http.requests")
        self._c_2xx = reg.counter("server.http.2xx")
        self._c_4xx = reg.counter("server.http.4xx")
        self._c_5xx = reg.counter("server.http.5xx")
        self._c_304 = reg.counter("server.http.304")
        self._c_hits = reg.counter("server.cache.hits")
        self._c_misses = reg.counter("server.cache.misses")
        self._c_coalesced = reg.counter("server.coalesced.waiters")
        self._c_executions = reg.counter("server.executions")
        self._c_failures = reg.counter("server.executions.failed")
        self._c_simulations = reg.counter("server.simulations")
        self._c_rejected_full = reg.counter("server.rejected.queue_full")
        self._c_rejected_drain = reg.counter("server.rejected.draining")
        self._c_timeouts = reg.counter("server.timeouts")
        self._g_queue = reg.gauge("server.queue.depth")
        self._g_inflight = reg.gauge("server.inflight.singles")
        self._g_connections = reg.gauge("server.connections.open")
        self._h_latency = reg.histogram("server.request.ms", LATENCY_EDGES)

    # ----- lifecycle ------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the actual (host, port)."""
        self._server = await asyncio.start_server(
            self._on_client, self.config.host, self.config.port)
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.begin_drain)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass

    def begin_drain(self) -> None:
        """Stop admitting evaluations; finish what is in flight."""
        self._draining.set()
        self._maybe_drained()

    async def serve_until_drained(self) -> None:
        """Serve until a drain begins (SIGTERM/SIGINT or
        :meth:`begin_drain`), wait at most ``drain_grace`` seconds for
        in-flight work to be answered, then shut down (:meth:`close`),
        abandoning whatever is still running."""
        assert self._server is not None, "call start() first"
        await self._draining.wait()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_grace
        try:
            await asyncio.wait_for(self._drained.wait(),
                                   self.config.drain_grace)
        except asyncio.TimeoutError:
            pass  # the grace expired: close() abandons what is left
        await self.close(max(0.0, deadline - loop.time()))

    async def close(self, grace: float = 5.0) -> None:
        """Stop listening and close every open connection, answered or
        not, then give running evaluations at most ``grace`` seconds to
        end.  An evaluation still running after that is abandoned; its
        pool child is a daemon process, terminated when the server
        exits.  Its waiters are failed, so every connection handler
        ends on its own within what is left of ``grace`` instead of
        being cancelled mid-read when the event loop shuts down."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + grace
        if self._server is not None:
            self._server.close()
            for writer in list(self._writers):
                writer.close()
            await self._server.wait_closed()
            self._server = None
        self.executor.close(grace)
        abandoned = ExecutionError({"type": "Abandoned",
                                    "message": "the server shut down"})
        for future in self._inflight.values():
            if not future.done():
                future.set_exception(abandoned)
        handlers = [task for task in self._handlers if not task.done()]
        if handlers:
            await asyncio.wait(handlers,
                               timeout=max(0.0, deadline - loop.time()))

    # ----- connection handling -------------------------------------------

    async def _on_client(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        handler = asyncio.current_task()
        self._handlers.add(handler)
        handler.add_done_callback(self._handlers.discard)
        self._writers.add(writer)
        self._g_connections.high_water(len(self._writers))
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader), IDLE_TIMEOUT)
                except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                        ConnectionError):
                    return
                except _HttpError as exc:
                    # nothing after a request that cannot be framed can
                    # be parsed: answer it, then close the connection
                    self._c_requests.inc()
                    self._count_status(exc.status)
                    request = _HttpRequest("", "", {}, b"", close=True)
                    reply = exc.status, {}, _json_error(exc.message)
                else:
                    if request is None:
                        return
                    self._open_requests += 1
                    try:
                        reply = await self._dispatch(request)
                    finally:
                        self._open_requests -= 1
                        self._maybe_drained()
                try:
                    await self._write_response(writer, request, *reply)
                except (ConnectionError, asyncio.CancelledError):
                    return
                if request.close:
                    return
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError: server.close() cancels client tasks
                # mid-wait; the transport is already being torn down
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Optional[_HttpRequest]:
        line = await _readline(reader)
        if not line:
            return None
        if len(line) > MAX_HEADER_BYTES:
            raise _HttpError(400, "request line too long")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, path, version = parts
        headers: Dict[str, str] = {}
        total = 0
        while True:
            line = await _readline(reader)
            total += len(line)
            if total > MAX_HEADER_BYTES:
                raise _HttpError(400, "headers too long")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise _HttpError(400, f"malformed Content-Length: {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        close = (headers.get("connection", "").lower() == "close"
                 or version == "HTTP/1.0")
        return _HttpRequest(method, path, headers, body, close)

    async def _write_response(self, writer: asyncio.StreamWriter,
                              request: _HttpRequest, status: int,
                              headers: Dict[str, str], body: bytes) -> None:
        reason = _STATUS_TEXT.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {reason}",
                 f"Server: repro/{__version__}",
                 f"Content-Length: {len(body)}"]
        if "Content-Type" not in headers and body:
            lines.append("Content-Type: application/json")
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        lines.append(
            f"Connection: {'close' if request.close else 'keep-alive'}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        if request.method != "HEAD":
            writer.write(body)
        await writer.drain()

    # ----- routing --------------------------------------------------------

    async def _dispatch(self, request: _HttpRequest
                        ) -> Tuple[int, Dict[str, str], bytes]:
        self._c_requests.inc()
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            status, headers, body = await self._route(request)
        except _HttpError as exc:
            status, headers, body = exc.status, {}, _json_error(exc.message)
        except Exception as exc:  # noqa: BLE001 - last-resort boundary
            status, headers, body = 500, {}, _json_error(
                f"internal error: {type(exc).__name__}: {exc}")
        self._h_latency.observe((loop.time() - started) * 1000.0)
        self._count_status(status)
        return status, headers, body

    def _count_status(self, status: int) -> None:
        if status == 304:
            self._c_304.inc()
        elif status < 300:
            self._c_2xx.inc()
        elif status < 500:
            self._c_4xx.inc()
        else:
            self._c_5xx.inc()

    async def _route(self, request: _HttpRequest
                     ) -> Tuple[int, Dict[str, str], bytes]:
        path = request.path.split("?", 1)[0]
        if path == "/v1/evaluate":
            if request.method != "POST":
                return 405, {"Allow": "POST"}, _json_error(
                    "evaluate takes POST")
            return await self._handle_evaluate(request)
        if request.method not in ("GET", "HEAD"):
            return 405, {"Allow": "GET"}, _json_error(
                f"{path} takes GET")
        if path == "/healthz":
            payload = {"status": "draining" if self._draining.is_set()
                       else "ok",
                       "version": __version__,
                       "inflight": len(self._inflight)}
            return 200, {}, _json_bytes(payload)
        if path == "/metrics":
            text = format_metrics(self.registry, title="server metrics")
            return 200, {"Content-Type": "text/plain; charset=utf-8"}, \
                (text + "\n").encode("utf-8")
        if path == "/metrics.json":
            return 200, {}, _json_bytes(self.metrics_snapshot())
        return 404, {}, _json_error(f"no route for {path}")

    # ----- the evaluation ladder -----------------------------------------

    async def _handle_evaluate(self, request: _HttpRequest
                               ) -> Tuple[int, Dict[str, str], bytes]:
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {}, _json_error(f"invalid JSON body: {exc}")
        try:
            parsed = parse_request(payload)
        except ProtocolError as exc:
            return 400, {}, _json_error(str(exc))
        if parsed.delay_ms and not self.config.allow_delay:
            return 400, {}, _json_error(
                "delay_ms requires the server to run with --allow-delay")
        if self.config.allowed_policies:
            allowed = set(self.config.allowed_policies) | {"original"}
            refused = sorted(set(parsed.policies) - allowed)
            if refused:
                return 400, {}, _json_error(
                    f"policy kind(s) not served here:"
                    f" {', '.join(refused)} (this server evaluates:"
                    f" {', '.join(sorted(allowed))})")

        key = await self._key_for(parsed)
        etag = etag_for(key)
        base_headers = {"ETag": etag, "X-Request-Key": key}

        # rung 1: fingerprint revalidation — nothing below this runs
        if request.headers.get("if-none-match") == etag:
            return 304, base_headers, b""

        # rung 2: rendered-response cache
        cached = self._responses.get(key)
        if cached is not None:
            self._responses.move_to_end(key)
            self._c_hits.inc()
            return 200, {**base_headers, "X-Cache": "hit"}, cached
        self._c_misses.inc()

        # rung 3: single flight
        leader = self._inflight.get(key)
        if leader is not None:
            self._c_coalesced.inc()
            return await self._await_result(key, leader, base_headers,
                                            coalesced=True)
        if self._draining.is_set():
            self._c_rejected_drain.inc()
            return 429, {"Retry-After": "60"}, _json_error(
                "server is draining; retry against another replica")
        if len(self._inflight) >= self.config.queue_limit:
            self._c_rejected_full.inc()
            return 429, {"Retry-After": str(self.config.retry_after)}, \
                _json_error(f"admission queue full"
                            f" ({self.config.queue_limit} evaluations in"
                            f" flight); retry after Retry-After seconds")

        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self._g_queue.set(len(self._inflight))
        self._g_inflight.high_water(len(self._inflight))
        self._c_executions.inc()
        asyncio.ensure_future(self._execute(key, parsed, future))
        return await self._await_result(key, future, base_headers,
                                        coalesced=False)

    async def _execute(self, key: str, parsed: EvalRequest,
                       future: "asyncio.Future[Dict[str, Any]]") -> None:
        payload = parsed.to_payload()
        payload["cache_dir"] = self.config.cache_dir
        payload["key"] = key
        try:
            result = await self.executor.submit(key, payload)
        except Exception as exc:  # noqa: BLE001 - executor boundary
            # a failed evaluation, or a thread that could not start
            self._c_failures.inc()
            if not future.done():
                future.set_exception(
                    exc if isinstance(exc, ExecutionError) else
                    ExecutionError({"type": type(exc).__name__,
                                    "message": str(exc)}))
        else:
            self._c_simulations.inc(result["meta"].get("simulations", 0))
            body = _json_bytes(result["body"])
            self._responses[key] = body
            while len(self._responses) > self.config.response_cache_entries:
                self._responses.popitem(last=False)
            if not future.done():
                future.set_result(result)
        finally:
            self._inflight.pop(key, None)
            self._g_queue.set(len(self._inflight))
            self._maybe_drained()

    async def _await_result(self, key: str,
                            future: "asyncio.Future[Dict[str, Any]]",
                            base_headers: Dict[str, str],
                            coalesced: bool
                            ) -> Tuple[int, Dict[str, str], bytes]:
        try:
            # shield: one waiter timing out must not cancel the shared
            # computation the other waiters (and the cache) depend on
            result = await asyncio.wait_for(asyncio.shield(future),
                                            self.config.request_timeout)
        except asyncio.TimeoutError:
            self._c_timeouts.inc()
            return 504, base_headers, _json_error(
                f"evaluation exceeded {self.config.request_timeout:.0f}s")
        except ExecutionError as exc:
            return 500, base_headers, _json_error(
                f"evaluation failed: {exc.error.get('type')}:"
                f" {exc.error.get('message')}")
        meta = result["meta"]
        headers = {
            **base_headers,
            "X-Cache": "coalesced" if coalesced else "computed",
            "X-Simulations": str(meta.get("simulations", 0)),
            "X-Trace-Cache": f"{meta.get('trace_cache_hits', 0)} hits"
                             f" {meta.get('trace_cache_misses', 0)} misses",
            "X-Compute-Seconds": str(meta.get("compute_seconds", 0)),
        }
        return 200, headers, _json_bytes(result["body"])

    async def _key_for(self, parsed: EvalRequest) -> str:
        """Fingerprint-derived key, memoised on the normalised request.

        Building programs to fingerprint them costs a few milliseconds,
        so the (request -> key) edge is itself a small LRU — duplicate
        traffic (the common case under load) never reassembles."""
        ident = (parsed.fu, parsed.workloads, parsed.policies,
                 parsed.swap_modes, parsed.scale, parsed.stats,
                 parsed.synthetic, parsed.cycles, parsed.seed,
                 parsed.config_overrides)
        key = self._key_cache.get(ident)
        if key is not None:
            self._key_cache.move_to_end(ident)
            return key
        if parsed.synthetic:
            fingerprints: List[str] = []
        else:
            loop = asyncio.get_running_loop()
            programs = await loop.run_in_executor(None, build_programs,
                                                  parsed)
            fingerprints = [program.fingerprint() for program in programs]
        key = request_key(parsed, fingerprints)
        self._key_cache[ident] = key
        while len(self._key_cache) > 1024:
            self._key_cache.popitem(last=False)
        return key

    # ----- reporting ------------------------------------------------------

    def _maybe_drained(self) -> None:
        if self._draining.is_set() and not self._inflight \
                and self._open_requests == 0:
            self._drained.set()

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Registry dump plus the ratios the load harness asserts on."""
        snapshot = self.registry.to_dict()
        counters = snapshot["counters"]
        evaluated = (counters.get("server.cache.hits", 0)
                     + counters.get("server.coalesced.waiters", 0)
                     + counters.get("server.executions", 0)
                     + counters.get("server.http.304", 0))
        served_cheap = evaluated - counters.get("server.executions", 0)
        snapshot["derived"] = {
            "coalesce_ratio": (served_cheap / evaluated) if evaluated else 0.0,
            "cache_hit_rate": ((counters.get("server.cache.hits", 0)
                                + counters.get("server.http.304", 0))
                               / evaluated) if evaluated else 0.0,
            "queue_depth": len(self._inflight),
            "draining": self._draining.is_set(),
        }
        return snapshot


async def _readline(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # longer than the stream reader's buffer limit
        raise _HttpError(400, "header line too long") from None


def _json_bytes(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _json_error(message: str) -> bytes:
    return _json_bytes({"error": message})


async def run_server(config: ServerConfig, announce=print) -> int:
    """``repro serve``: bind, announce, serve until drained."""
    server = EvalServer(config)
    host, port = await server.start()
    server.install_signal_handlers()
    announce(json.dumps({"event": "listening", "host": host, "port": port,
                         "executor": server.executor.kind,
                         "cache_dir": config.cache_dir,
                         "pid": os.getpid()}), flush=True)
    await server.serve_until_drained()
    counters = server.registry.counter_values()
    announce(json.dumps({
        "event": "drained",
        "requests": counters.get("server.http.requests", 0),
        "executions": counters.get("server.executions", 0),
        "coalesced": counters.get("server.coalesced.waiters", 0),
        "rejected": counters.get("server.rejected.queue_full", 0)
        + counters.get("server.rejected.draining", 0),
    }), flush=True)
    return 0


def serve_main(config: ServerConfig) -> int:
    try:
        return asyncio.run(run_server(config))
    except KeyboardInterrupt:  # pragma: no cover - signal race on exit
        return 0


__all__ = ["EvalServer", "LATENCY_EDGES", "ServerConfig", "run_server",
           "serve_main"]
