"""The seeded request stream and open-loop due-time accounting."""

import asyncio
import json

import pytest

from openloop import (HOT_REQUESTS, STRATA, LoopResult, Request,
                      backlog_growth, fresh_keys, fresh_sequence,
                      request_stream, run_open_loop, send_in_turn)


def test_request_stream_is_a_pure_function_of_the_seed():
    first = request_stream(7, 20.0, 400)
    assert first == request_stream(7, 20.0, 400)
    other = request_stream(8, 20.0, 400)
    assert [r.due for r in first] != [r.due for r in other]
    assert [r.kind for r in first] != [r.kind for r in other]


def test_request_stream_mix_and_keys():
    stream = request_stream(3, 20.0, 400)
    kinds = [r.kind for r in stream]
    assert (kinds.count("hot"), kinds.count("revalidate"),
            kinds.count("fresh")) == (320, 40, 40)
    dues = [r.due for r in stream]
    assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] < 20.0
    fresh = [r.body for r in stream if r.kind == "fresh"]
    assert len(set(fresh)) == len(fresh)
    # the fresh work is the same for every seed; only its order differs
    assert sorted(fresh) == sorted(fresh_keys(40))
    assert sorted(fresh) == sorted(r.body for r in request_stream(
        4, 20.0, 400) if r.kind == "fresh")
    hot = {json.dumps(h, sort_keys=True).encode() for h in HOT_REQUESTS}
    assert hot.isdisjoint(fresh)
    for request in stream:
        payload = json.loads(request.body)
        assert payload["scale"] == 1 and 1 <= len(payload["workloads"]) <= 3
    with pytest.raises(ValueError):
        request_stream(1, 20.0, 15)


def test_fresh_sequence_orders_the_same_keys_by_seed():
    assert fresh_sequence(7, 30) == fresh_sequence(7, 30)
    assert fresh_sequence(7, 30) != fresh_sequence(8, 30)
    assert sorted(fresh_sequence(7, 30)) == sorted(fresh_keys(30))
    strata = {(json.loads(body)["fu"], tuple(json.loads(body)["policies"]))
              for body in fresh_keys(len(STRATA))}
    assert strata == set(STRATA)


def _stub_server(stall_index: int, stall: float):
    """An HTTP stub that answers at once, except that the request it
    receives ``stall_index``-th is held for ``stall`` seconds."""
    seen = []

    async def handle(reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            length = 0
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b""):
                    break
                name, _, value = header.decode().partition(":")
                if name.lower() == "content-length":
                    length = int(value)
            await reader.readexactly(length)
            seen.append(line)
            if len(seen) == stall_index + 1:
                await asyncio.sleep(stall)
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
            await writer.drain()
        writer.close()

    return handle


def test_a_stall_is_charged_to_the_requests_it_delays():
    gap, stall, stalled = 0.02, 0.3, 2
    schedule = [Request(due=gap * i, kind="hot", hot=0, body=b"{}")
                for i in range(20)]

    async def scenario():
        server = await asyncio.start_server(_stub_server(stalled, stall),
                                            "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            return await run_open_loop("127.0.0.1", port, schedule,
                                       etags=['"x"'], connections=1)
        finally:
            server.close()
            await server.wait_closed()

    result = asyncio.run(scenario())
    assert all(o.response is not None and o.response.status == 200
               for o in result.outcomes)
    latencies = [o.latency for o in result.outcomes]
    # the next request was due one gap after the stalled one, and could
    # only be sent once the stall ended: its latency holds the rest of it
    assert latencies[stalled + 1] >= stall - gap - 0.01
    assert latencies[stalled + 1] > 5 * latencies[-1]
    # timed from the due time, so queueing counts on top of service
    assert all(o.latency >= o.service for o in result.outcomes)
    # the generator kept its schedule and says how late it was
    assert len(result.lateness) == len(schedule)
    assert max(result.lateness) < 0.05


def test_closed_loop_charges_a_stall_only_to_the_stalled_request():
    stall, stalled = 0.3, 1

    async def scenario():
        server = await asyncio.start_server(_stub_server(stalled, stall),
                                            "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            return await send_in_turn("127.0.0.1", port, [b"{}"] * 4)
        finally:
            server.close()
            await server.wait_closed()

    outcomes = asyncio.run(scenario())
    assert [o.response.body for o in outcomes] == [b"ok"] * 4
    assert outcomes[stalled].latency >= stall
    assert all(o.latency < stall / 3 for i, o in enumerate(outcomes)
               if i != stalled)


def test_backlog_growth_sees_a_queue_that_never_drains():
    dues = [0.1 * i for i in range(100)]
    steady = [due + 0.05 for due in dues]
    growing = [due + 0.05 + 0.05 * i for i, due in enumerate(dues)]
    assert abs(backlog_growth(dues, steady)) <= 1
    assert backlog_growth(dues, growing) > 5
    # a 3 s stall near the end piles up 30 requests, then drains
    stalled = [9.0 if 6.0 <= due < 9.0 else due + 0.05 for due in dues]
    assert backlog_growth(dues, stalled) == 0


def test_lateness_guard_ignores_a_lone_hiccup_but_not_a_late_harness():
    from run import guard_problem
    dues = [0.05 * i for i in range(160)]
    done = [due + 0.01 for due in dues]
    on_time = [0.0001] * 160
    assert guard_problem(LoopResult([], on_time, dues, done)) is None
    # two late wake-ups: with 160 samples a nearest-rank "p99" is the
    # second-latest, so one descheduling would trip a p99 guard
    hiccups = on_time[:-2] + [0.02, 0.02]
    assert guard_problem(LoopResult([], hiccups, dues, done)) is None
    late = on_time[:-20] + [0.02] * 20
    assert "lateness p90" in guard_problem(LoopResult([], late, dues, done))
    # with enough samples the guard is a true p99
    many = [0.0001] * 1970 + [0.02] * 30
    dues = [0.01 * i for i in range(2000)]
    done = [due + 0.005 for due in dues]
    assert "lateness p99" in guard_problem(LoopResult([], many, dues, done))
    growing = [due + 0.05 * i for i, due in enumerate(dues)]
    assert "backlog" in guard_problem(
        LoopResult([], [0.0001] * 2000, dues, growing))
