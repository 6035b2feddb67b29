"""Load-test harness for the evaluation server.

Drives concurrent keep-alive clients (each an asyncio task owning one
connection) against a server and measures what the serving layer is
*for* — not raw evaluation speed, but how well the memoization ladder
absorbs traffic:

* **burst phase** — every client fires the *same cold request* at
  once.  A correct single flight runs one evaluation; the coalesce
  ratio (requests served without a new execution / requests served)
  comes from ``/metrics.json`` counter deltas, not client guesses.
* **steady phase** — clients hammer the now-warm key (optionally mixed
  with a fraction of distinct keys) for wall-clock latency: p50/p99,
  throughput, cache hit rate.
* **revalidation phase** — clients resend with ``If-None-Match`` and
  expect ``304`` with empty bodies.

Results land in ``BENCH_server.json`` (same shape discipline as
``BENCH_hotpath.json``): assertion flags (``--assert-coalesce-ratio``,
``--assert-p99-ms``, ``--assert-zero-5xx``) turn measured claims into
CI gates.  ``--spawn`` runs its own server subprocess on an ephemeral
port so the bench is one command; ``--drain-check`` is a separate
scenario proving graceful shutdown: SIGTERM with a request in flight
must finish that request and refuse new evaluations with 429.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..runner.atomic import atomic_write_json

DEFAULT_REQUEST = {
    "fu": "ialu",
    "synthetic": True,
    "cycles": 4000,
    "policies": ["original", "lut-4"],
    "swap_modes": ["none", "hw"],
}


@dataclass
class Sample:
    status: int
    ms: float
    body: bytes
    headers: Dict[str, str]


@dataclass
class PhaseStats:
    name: str
    samples: List[Sample] = field(default_factory=list)
    wall_seconds: float = 0.0

    def summary(self) -> Dict[str, Any]:
        lat = sorted(s.ms for s in self.samples)
        statuses: Dict[str, int] = {}
        for sample in self.samples:
            statuses[str(sample.status)] = statuses.get(
                str(sample.status), 0) + 1
        n = len(lat)
        return {
            "requests": n,
            "wall_seconds": round(self.wall_seconds, 4),
            "throughput_rps": round(n / self.wall_seconds, 2)
            if self.wall_seconds else 0.0,
            "p50_ms": round(_percentile(lat, 0.50), 3),
            "p99_ms": round(_percentile(lat, 0.99), 3),
            "max_ms": round(lat[-1], 3) if lat else 0.0,
            "statuses": statuses,
        }

    def count_5xx(self) -> int:
        return sum(1 for s in self.samples if s.status >= 500)


def _percentile(ordered: Sequence[float], q: float) -> float:
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


class Client:
    """One keep-alive HTTP/1.1 connection, minimal on purpose."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port)

    async def request(self, method: str, path: str,
                      body: Optional[bytes] = None,
                      headers: Optional[Dict[str, str]] = None,
                      timeout: float = 120.0) -> Sample:
        if self.writer is None:
            await self.connect()
        assert self.reader is not None and self.writer is not None
        lines = [f"{method} {path} HTTP/1.1",
                 f"Host: {self.host}:{self.port}",
                 f"Content-Length: {len(body or b'')}"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        started = time.perf_counter()
        self.writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("ascii"))
        if body:
            self.writer.write(body)
        await self.writer.drain()
        status, resp_headers, resp_body = await asyncio.wait_for(
            self._read_response(), timeout)
        elapsed = (time.perf_counter() - started) * 1000.0
        return Sample(status=status, ms=elapsed, body=resp_body,
                      headers=resp_headers)

    async def _read_response(self) -> Tuple[int, Dict[str, str], bytes]:
        assert self.reader is not None
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        status = int(line.split()[1])
        headers: Dict[str, str] = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        body = await self.reader.readexactly(length) if length else b""
        return status, headers, body

    async def close(self) -> None:
        if self.writer is not None:
            try:
                self.writer.close()
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = None
            self.reader = None


async def _metrics(client: Client) -> Dict[str, Any]:
    sample = await client.request("GET", "/metrics.json")
    if sample.status != 200:
        raise RuntimeError(f"/metrics.json returned {sample.status}")
    return json.loads(sample.body)


def _counter(snapshot: Dict[str, Any], name: str) -> int:
    return snapshot.get("counters", {}).get(name, 0)


async def run_load(host: str, port: int, *, clients: int, requests: int,
                   request_body: Dict[str, Any],
                   distinct_fraction: float = 0.0,
                   timeout: float = 120.0) -> Dict[str, Any]:
    """The main scenario: burst (cold, all-duplicate), steady (warm),
    revalidate (If-None-Match).  Returns the merged summary dict."""
    body = json.dumps(request_body).encode("utf-8")
    probe = Client(host, port)
    before = await _metrics(probe)

    # ---- burst: N concurrent identical requests against a cold key
    burst = PhaseStats("burst")
    pool = [Client(host, port) for _ in range(clients)]
    started = time.perf_counter()
    burst.samples = list(await asyncio.gather(*(
        client.request("POST", "/v1/evaluate", body, timeout=timeout)
        for client in pool)))
    burst.wall_seconds = time.perf_counter() - started
    after_burst = await _metrics(probe)

    bodies = {s.body for s in burst.samples if s.status == 200}
    executions = (_counter(after_burst, "server.executions")
                  - _counter(before, "server.executions"))
    served = sum(1 for s in burst.samples if s.status == 200)
    coalesce_ratio = (served - executions) / served if served else 0.0

    # ---- steady: every client loops on the warm key
    steady = PhaseStats("steady")
    per_client = max(1, requests // max(1, clients))
    distinct_every = (int(1 / distinct_fraction)
                      if distinct_fraction > 0 else 0)

    async def _steady_worker(index: int, client: Client) -> List[Sample]:
        samples = []
        for i in range(per_client):
            payload = request_body
            if distinct_every and i % distinct_every == distinct_every - 1:
                # a fresh key: same shape, different seed -> cache miss
                payload = dict(request_body,
                               seed=1_000_000 + index * per_client + i)
            data = json.dumps(payload).encode("utf-8")
            samples.append(await client.request(
                "POST", "/v1/evaluate", data, timeout=timeout))
        return samples

    started = time.perf_counter()
    results = await asyncio.gather(*(
        _steady_worker(index, client) for index, client in enumerate(pool)))
    steady.wall_seconds = time.perf_counter() - started
    steady.samples = [s for batch in results for s in batch]
    after_steady = await _metrics(probe)

    # ---- revalidate: conditional requests answered from the hash alone
    etag = next((s.headers.get("etag") for s in burst.samples
                 if s.status == 200 and "etag" in s.headers), None)
    revalidate = PhaseStats("revalidate")
    if etag:
        started = time.perf_counter()
        revalidate.samples = list(await asyncio.gather(*(
            client.request("POST", "/v1/evaluate", body,
                           headers={"If-None-Match": etag},
                           timeout=timeout)
            for client in pool)))
        revalidate.wall_seconds = time.perf_counter() - started
    final = await _metrics(probe)

    await asyncio.gather(*(client.close() for client in pool))
    await probe.close()

    hits = (_counter(final, "server.cache.hits")
            - _counter(before, "server.cache.hits"))
    total_2xx = (_counter(final, "server.http.2xx")
                 - _counter(before, "server.http.2xx"))
    not_modified = (_counter(final, "server.http.304")
                    - _counter(before, "server.http.304"))
    answered = total_2xx + not_modified
    summary = {
        "clients": clients,
        "burst": burst.summary(),
        "steady": steady.summary(),
        "revalidate": revalidate.summary(),
        "coalesce": {
            "burst_requests": served,
            "executions": executions,
            "ratio": round(coalesce_ratio, 4),
            "identical_bodies": len(bodies) <= 1,
        },
        "cache": {
            "hits": hits,
            "not_modified": not_modified,
            "hit_rate": round((hits + not_modified) / answered, 4)
            if answered else 0.0,
        },
        "errors_5xx": (burst.count_5xx() + steady.count_5xx()
                       + revalidate.count_5xx()),
        "revalidate_all_304": bool(revalidate.samples) and all(
            s.status == 304 for s in revalidate.samples),
        "steady_executions": (_counter(after_steady, "server.executions")
                              - _counter(after_burst, "server.executions")),
    }
    return summary


async def run_drain_check(host: str, port: int, pid: int,
                          process: "subprocess.Popen") -> Dict[str, Any]:
    """SIGTERM with a request in flight: the in-flight request must
    complete 200, new evaluations must bounce 429, exit must be 0."""
    slow = dict(DEFAULT_REQUEST, delay_ms=1500)
    slow_body = json.dumps(slow).encode("utf-8")
    fresh = dict(DEFAULT_REQUEST, seed=424242)
    fresh_body = json.dumps(fresh).encode("utf-8")

    inflight_client = Client(host, port)
    late_client = Client(host, port)
    inflight = asyncio.ensure_future(
        inflight_client.request("POST", "/v1/evaluate", slow_body,
                                timeout=60.0))
    await asyncio.sleep(0.4)  # let the slow evaluation get admitted
    os.kill(pid, signal.SIGTERM)
    await asyncio.sleep(0.2)  # let the drain flag latch
    late = await late_client.request("POST", "/v1/evaluate", fresh_body,
                                     timeout=30.0)
    inflight_sample = await inflight
    await inflight_client.close()
    await late_client.close()
    exit_code = process.wait(timeout=30)
    return {
        "inflight_status": inflight_sample.status,
        "late_status": late.status,
        "late_retry_after": late.headers.get("retry-after"),
        "exit_code": exit_code,
        "ok": (inflight_sample.status == 200 and late.status == 429
               and exit_code == 0),
    }


def spawn_server(extra_args: Sequence[str] = (),
                 timeout: float = 30.0
                 ) -> Tuple["subprocess.Popen", str, int]:
    """Start ``repro serve --port 0`` and parse its listening line."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env=env, text=True)
    assert process.stdout is not None
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited before listening (rc={process.poll()})")
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        if event.get("event") == "listening":
            return process, event["host"], event["port"]
    process.kill()
    raise RuntimeError("server did not announce a listening port in time")


def stop_server(process: "subprocess.Popen", timeout: float = 30.0) -> int:
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            return process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            return process.wait(timeout=5)
    return process.returncode


def add_arguments(parser: argparse.ArgumentParser,
                  policy_type=str) -> argparse.ArgumentParser:
    """Install the loadtest flags on ``parser``.

    ``policy_type`` lets the CLI pass its registry-validating
    ``_policy_kind`` argparse type, so a typo'd ``--policies`` dies at
    parse time with the registry's error message instead of as a 400
    from the server mid-run.
    """
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None,
                        help="target an already-running server; omit to"
                             " spawn one on an ephemeral port")
    parser.add_argument("--clients", type=int, default=50,
                        help="concurrent keep-alive connections")
    parser.add_argument("--requests", type=int, default=500,
                        help="total steady-phase requests across clients")
    parser.add_argument("--quick", action="store_true",
                        help="CI preset: fewer clients/requests")
    parser.add_argument("--distinct-fraction", type=float, default=0.0,
                        help="fraction of steady requests using fresh keys")
    parser.add_argument("--cycles", type=int, default=4000,
                        help="synthetic stream length per evaluation")
    parser.add_argument("--policies", nargs="*", type=policy_type,
                        default=None,
                        help="policy kinds in the load request (default:"
                             " original + lut-4)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-request client timeout (seconds)")
    parser.add_argument("--output", default=None,
                        help="write the summary JSON here")
    parser.add_argument("--drain-check", action="store_true",
                        help="run the SIGTERM graceful-drain scenario"
                             " instead of the load scenario (spawns its"
                             " own server)")
    parser.add_argument("--assert-coalesce-ratio", type=float, default=None,
                        help="fail unless burst coalesce ratio >= this")
    parser.add_argument("--assert-p99-ms", type=float, default=None,
                        help="fail unless steady p99 <= this many ms")
    parser.add_argument("--assert-zero-5xx", action="store_true",
                        help="fail if any request returned a 5xx")
    return parser


def build_parser() -> argparse.ArgumentParser:
    return add_arguments(argparse.ArgumentParser(
        prog="repro loadtest",
        description="Load-test the evaluation server."))


def run_from_args(args, serve_args: Sequence[str] = ()) -> int:
    if args.quick:
        args.clients = min(args.clients, 20)
        args.requests = min(args.requests, 120)

    process = None
    failures: List[str] = []
    try:
        if args.drain_check:
            process, host, port = spawn_server(
                ("--allow-delay", *serve_args))
            result = asyncio.run(run_drain_check(host, port, process.pid,
                                                 process))
            summary: Dict[str, Any] = {"drain_check": result}
            if not result["ok"]:
                failures.append(f"drain check failed: {result}")
            process = None  # already exited (or wait() raised)
        else:
            if args.port is None:
                process, host, port = spawn_server(serve_args)
            else:
                host, port = args.host, args.port
            request_body = dict(DEFAULT_REQUEST, cycles=args.cycles)
            if args.policies:
                request_body["policies"] = list(args.policies)
            summary = asyncio.run(run_load(
                host, port, clients=args.clients, requests=args.requests,
                request_body=request_body,
                distinct_fraction=args.distinct_fraction,
                timeout=args.timeout))
            summary["request"] = request_body

            if not summary["coalesce"]["identical_bodies"]:
                failures.append("burst responses were not bit-identical")
            if args.assert_coalesce_ratio is not None and \
                    summary["coalesce"]["ratio"] < args.assert_coalesce_ratio:
                failures.append(
                    f"coalesce ratio {summary['coalesce']['ratio']:.3f}"
                    f" < {args.assert_coalesce_ratio}")
            if args.assert_p99_ms is not None and \
                    summary["steady"]["p99_ms"] > args.assert_p99_ms:
                failures.append(
                    f"steady p99 {summary['steady']['p99_ms']:.1f}ms"
                    f" > {args.assert_p99_ms}ms")
            if args.assert_zero_5xx and summary["errors_5xx"]:
                failures.append(f"{summary['errors_5xx']} 5xx responses")
    finally:
        if process is not None:
            stop_server(process)

    summary["ok"] = not failures
    if failures:
        summary["failures"] = failures
    if args.output:
        atomic_write_json(args.output, summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    for failure in failures:
        print(f"ASSERTION FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run_from_args(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
