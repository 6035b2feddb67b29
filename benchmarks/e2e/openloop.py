"""Open-loop HTTP load for the ``serve-mix`` workload.

Independent users do not wait for each other, so requests are sent on
a schedule made in advance from the seed, whatever the server is
doing.  At most ``connections`` keep-alive connections carry them; a
request due while every connection is busy waits for one, and its
latency is timed from when it was *due*, so a stall is charged to
every request it delays.  How late the generator itself woke up is
reported separately: if the harness cannot keep its own schedule, the
run measures the harness, not the server.

:func:`send_in_turn` is the closed loop the fresh-key passes use: one
client that sends its next request when the previous one is answered.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

INT_SUITE = ("cc1", "compress", "go", "ijpeg", "li", "m88ksim", "perl",
             "vortex")
FP_SUITE = ("applu", "apsi", "fpppp", "hydro2d", "mgrid", "swim", "tomcatv",
            "turb3d", "wave5")
#: the figure-4 grid's policies besides the baseline, minus full-ham,
#: whose scalar matcher would let a few keys set the whole tail
FRESH_POLICIES = ("1bit-ham", "lut-8", "lut-4", "lut-2", "bdd-4")
POLICY_SUBSETS = tuple([(p,) for p in FRESH_POLICIES]
                       + [(a, b) for i, a in enumerate(FRESH_POLICIES)
                          for b in FRESH_POLICIES[i + 1:]])
#: the fresh keys are drawn from this fixed seed, not the run's: their
#: evaluation cost spans 15 ms to 0.5 s, and a few hundred draws per run
#: would make the miss work itself differ from seed to seed
FRESH_KEY_SEED = 0

#: every request asks for scale 1, the scale ``repro figure4`` records,
#: so the server replays the streams the set-up run put in the cache
SCALE = 1

#: the hot keys: small panels (cheap to warm) with three policies, so
#: no fresh key (one or two policies) can ever equal one of them
HOT_REQUESTS = (
    {"fu": "ialu", "workloads": ["compress", "li"], "scale": SCALE,
     "policies": ["lut-4", "1bit-ham", "bdd-4"]},
    {"fu": "fpau", "workloads": ["mgrid", "swim"], "scale": SCALE,
     "policies": ["lut-4", "1bit-ham", "bdd-4"]},
    {"fu": "ialu", "workloads": ["go"], "scale": SCALE,
     "policies": ["lut-8", "lut-2", "bdd-4"]},
    {"fu": "fpau", "workloads": ["applu"], "scale": SCALE,
     "policies": ["lut-8", "lut-2", "1bit-ham"]},
)

#: traffic mix, in requests per 10
MIX = (("hot", 8), ("revalidate", 1), ("fresh", 1))

#: the generator sleeps until this long before a due time and yields in
#: a loop for the rest: the event loop's timers wake up to a millisecond
#: late, which would otherwise be most of a cache hit's latency
SPIN = 0.002
#: a request without a response after this many seconds has failed
REQUEST_TIMEOUT = 30.0
#: sampling interval of the outstanding-request count, seconds
BACKLOG_TICK = 0.1


@dataclass(frozen=True)
class Request:
    """One scheduled request."""

    due: float   # seconds after the schedule starts
    kind: str    # "hot", "revalidate" or "fresh"
    hot: int     # hot-key index for hot/revalidate, -1 for fresh
    body: bytes  # the POST body


#: (FU class, policy subset) pairs the fresh keys are spread over
STRATA = tuple((fu, subset) for subset in POLICY_SUBSETS
               for fu in ("ialu", "fpau"))


def fresh_keys(count: int) -> List[bytes]:
    """``count`` distinct fresh-key bodies, the same for every run.

    :data:`STRATA` are taken in turn, so any prefix holds every stratum
    equally often; the one to three workloads of each key are drawn
    from :data:`FRESH_KEY_SEED`.
    """
    rng = random.Random(FRESH_KEY_SEED)
    seen = set()
    bodies = []
    while len(bodies) < count:
        fu, policies = STRATA[len(bodies) % len(STRATA)]
        suite = INT_SUITE if fu == "ialu" else FP_SUITE
        loads = tuple(sorted(rng.sample(suite, rng.randint(1, 3))))
        if (fu, loads, policies) in seen:
            continue
        seen.add((fu, loads, policies))
        bodies.append(_body({"fu": fu, "workloads": list(loads),
                             "policies": list(policies), "scale": SCALE}))
    return bodies


def request_stream(seed: int, rate: float, count: int) -> List[Request]:
    """``count`` requests at ``rate`` per second: a pure function of
    its arguments.

    Arrival times are a Poisson process conditioned on ``count``
    arrivals (sorted uniform times over ``count / rate`` seconds).  The
    kinds follow :data:`MIX` exactly, and ``count`` must be a multiple
    of 10.  The seed sets the arrival times, the order of kinds and
    fresh keys, and which hot key each hot request or revalidation
    names; the fresh keys themselves come from :func:`fresh_keys`.
    """
    if count <= 0 or count % 10:
        raise ValueError("count must be a positive multiple of 10")
    rng = random.Random(seed)
    span = count / rate
    dues = sorted(rng.uniform(0.0, span) for _ in range(count))
    kinds = [kind for kind, share in MIX for _ in range(count * share // 10)]
    rng.shuffle(kinds)
    fresh = fresh_keys(kinds.count("fresh"))
    rng.shuffle(fresh)
    requests = []
    for due, kind in zip(dues, kinds):
        if kind == "fresh":
            requests.append(Request(due, kind, -1, fresh.pop()))
        else:
            hot = rng.randrange(len(HOT_REQUESTS))
            requests.append(Request(due, kind, hot,
                                    _body(HOT_REQUESTS[hot])))
    return requests


def fresh_sequence(seed: int, count: int) -> List[bytes]:
    """The first ``count`` fresh keys in an order drawn from ``seed``."""
    bodies = fresh_keys(count)
    random.Random(seed).shuffle(bodies)
    return bodies


def _body(payload) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


# ----- the client -------------------------------------------------------------


@dataclass
class Response:
    status: int
    headers: Dict[str, str]
    body: bytes


@dataclass
class Outcome:
    """What happened to one scheduled request."""

    latency: float            # completion - due, seconds
    service: float            # completion - sent, seconds
    response: Optional[Response]
    error: str = ""


@dataclass
class LoopResult:
    outcomes: List[Outcome]
    lateness: List[float]     # generator wake time - due, seconds
    dues: List[float]         # absolute due times (loop clock)
    completions: List[float]  # absolute completion times (loop clock)


class Connection:
    """One keep-alive HTTP/1.1 connection; reconnects after an error."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def request(self, method: str, path: str, body: bytes = b"",
                      headers: Optional[Dict[str, str]] = None) -> Response:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port)
        lines = [f"{method} {path} HTTP/1.1", f"Host: {self.host}",
                 f"Content-Length: {len(body)}"]
        lines += [f"{name}: {value}" for name, value in
                  (headers or {}).items()]
        self.writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                          + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        response_headers: Dict[str, str] = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            response_headers[name.strip().lower()] = value.strip()
        length = int(response_headers.get("content-length", "0"))
        payload = await self.reader.readexactly(length) if length else b""
        return Response(status, response_headers, payload)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.reader = self.writer = None


async def run_open_loop(host: str, port: int, schedule: Sequence[Request],
                        etags: Sequence[str], connections: int = 2
                        ) -> LoopResult:
    """Send ``schedule`` open-loop over ``connections`` connections.

    ``etags[i]`` is the ETag of hot key ``i``; revalidations send it in
    ``If-None-Match``.
    """
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.05
    queue: "asyncio.Queue[Optional[int]]" = asyncio.Queue()
    n = len(schedule)
    outcomes: List[Optional[Outcome]] = [None] * n
    completions = [0.0] * n
    lateness: List[float] = []

    async def generate() -> None:
        for index, request in enumerate(schedule):
            due = start + request.due
            delay = due - loop.time() - SPIN
            if delay > 0:
                await asyncio.sleep(delay)
            while loop.time() < due:
                await asyncio.sleep(0)
            lateness.append(loop.time() - due)
            queue.put_nowait(index)
        for _ in range(connections):
            queue.put_nowait(None)

    async def send() -> None:
        conn = Connection(host, port)
        try:
            while True:
                index = await queue.get()
                if index is None:
                    return
                request = schedule[index]
                headers = {}
                if request.kind == "revalidate":
                    headers["If-None-Match"] = etags[request.hot]
                sent = loop.time()
                response, error = await _evaluate(conn, request.body,
                                                  headers)
                done = loop.time()
                completions[index] = done
                outcomes[index] = Outcome(done - (start + request.due),
                                          done - sent, response, error)
        finally:
            await conn.close()

    workers = [asyncio.create_task(send()) for _ in range(connections)]
    await generate()
    await asyncio.gather(*workers)
    return LoopResult(outcomes=list(outcomes), lateness=lateness,
                      dues=[start + r.due for r in schedule],
                      completions=completions)


async def send_in_turn(host: str, port: int, bodies: Sequence[bytes]
                       ) -> List[Outcome]:
    """Closed loop: POST each body once the previous response is in,
    over one connection.  Nothing queues, so latency is service time."""
    loop = asyncio.get_running_loop()
    conn = Connection(host, port)
    outcomes = []
    try:
        for body in bodies:
            sent = loop.time()
            response, error = await _evaluate(conn, body, {})
            took = loop.time() - sent
            outcomes.append(Outcome(took, took, response, error))
    finally:
        await conn.close()
    return outcomes


async def _evaluate(conn: Connection, body: bytes, headers: Dict[str, str]
                    ) -> Tuple[Optional[Response], str]:
    """``POST /v1/evaluate``: the response, or None and what failed."""
    try:
        return await asyncio.wait_for(
            conn.request("POST", "/v1/evaluate", body,
                         {"Content-Type": "application/json", **headers}),
            REQUEST_TIMEOUT), ""
    except (asyncio.TimeoutError, ConnectionError, OSError,
            asyncio.IncompleteReadError, ValueError) as exc:
        await conn.close()
        return None, f"{type(exc).__name__}: {exc}"


def backlog_growth(dues: Sequence[float], completions: Sequence[float]
                   ) -> float:
    """Growth of the outstanding-request count over a fixed-rate step:
    its lowest value over the second half of the step minus its lowest
    over the first half, sampled every :data:`BACKLOG_TICK` seconds.
    Outstanding at time t: due by t, not done by t.

    The floor, not a median: two slow misses hold both connections for
    a second or two, and the hot requests due meanwhile pile up (10 to
    20 outstanding) and then drain to none.  A server that keeps up
    drains between such spikes; one that cannot raises the floor.
    """
    begin, end = min(dues), max(dues)
    halves: List[List[int]] = [[], []]
    for k in range(int((end - begin) / BACKLOG_TICK) + 1):
        t = begin + k * BACKLOG_TICK
        outstanding = sum(1 for due, done in zip(dues, completions)
                          if due <= t < done)
        halves[min(1, int(2 * (t - begin) / (end - begin or 1.0)))].append(
            outstanding)
    return float(min(halves[1] or [0]) - min(halves[0] or [0]))
