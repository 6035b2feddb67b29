"""Evaluation execution for the server: the work behind a cache miss.

There is one executor, :class:`EvalExecutor`.  A miss waits on the
event loop, holding no thread, for one of ``max_workers`` slots, then
runs as a one-task :meth:`~repro.runner.pool.ProcessTaskPool.run` on
a daemon thread of its own; the task's ``on_done``/``on_failed``
settles the request's future.  So ``max_workers`` evaluations run at
once however the requests arrive, and a miss never waits behind
another request's evaluation while a slot is free.  With
``kind="pool"`` (the default) the task runs in a forked child, so the
server inherits the pool's crash isolation and per-task SIGKILL
timeout; ``kind="inline"`` passes ``executor="inline"`` to the pool
and runs the same path in this process, where tests can monkeypatch
module state (e.g. a counting ``Simulator``) and have the evaluation
observe it.  A launch that fails (``OSError``: fork ``EAGAIN``, no
file descriptors) fails that request with a 500 like any other
failed evaluation.  The executor builds LUT synthesis's scenario
tables when it is made, before any miss forks, so every child inherits
them.

The evaluation itself (:func:`evaluate_request`) is the CLI's own
figure-4 driver against the server's shared trace cache.  That driver
records every program version under ``TraceCacheLock``, so coalescing
holds *across server processes* sharing one cache directory: one
process simulates a given (program, config) stream, the rest replay
it.  The provenance in ``meta`` therefore counts the request's own
simulations and cache hits.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Dict, List, Optional, Set

from ..analysis.energy import (Figure4Result, run_figure4,
                               run_figure4_synthetic)
from ..analysis.report import render_figure4
from ..core.lut import allocate_homes
from ..core.statistics import paper_statistics
from ..cpu.config import default_config
from ..isa.instructions import FUClass
from ..runner.pool import PoolItem, ProcessTaskPool, error_payload
from ..workloads import workload
from .protocol import EvalRequest, request_key


def build_programs(request: EvalRequest) -> List[Any]:
    """Assemble the request's (unmodified) program versions."""
    return [workload(name).build(request.scale)
            for name in request.workloads]


def _render_result(request: EvalRequest, key: str,
                   panel: Figure4Result) -> Dict[str, Any]:
    """The response body: a pure function of the request.

    Volatile provenance (simulation counts, cache hits, wall time)
    deliberately lives in the ``meta`` sub-object, which the server
    strips into headers — the ``body`` proper must come out
    byte-identical however the result was obtained (cold simulate,
    warm replay, any engine).
    """
    cells = {}
    for (scheme, mode), cell in sorted(panel.cells.items()):
        cells[f"{scheme}|{mode}"] = {
            "switched_bits": cell.switched_bits,
            "operations": cell.operations,
            "hardware_swaps": cell.hardware_swaps,
            "reduction_pct": round(100 * panel.reduction(scheme, mode), 4),
        }
    body = {
        "key": key,
        "fu": request.fu,
        "workloads": list(panel.workload_names),
        "policies": list(request.policies),
        "swap_modes": list(request.swap_modes),
        "stats": request.stats,
        "synthetic": request.synthetic,
        "baseline_bits": panel.baseline_bits,
        "cells": cells,
        "report": render_figure4(
            panel,
            title=(f"Figure 4 (calibrated synthetic),"
                   f" {request.fu.upper()}" if request.synthetic else None)),
    }
    meta = {
        "simulations": panel.simulations,
        "trace_cache_hits": panel.cache_hits,
        "trace_cache_misses": panel.cache_misses,
    }
    return {"body": body, "meta": meta}


def evaluate_request(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one evaluation; the worker of every evaluation's pool.

    ``payload`` is ``request.to_payload()`` plus ``cache_dir`` (may be
    None) and ``key``.  Runs in a pool child process or, inline, on the
    evaluation's thread; must stay picklable-in, picklable-out.
    """
    payload = dict(payload)
    cache_dir = payload.pop("cache_dir", None)
    key = payload.pop("key", None)
    request = EvalRequest.from_payload(payload)
    if request.delay_ms:
        # test-only knob (gated server-side): hold the evaluation open
        # so drain/timeout behaviour can be exercised deterministically
        time.sleep(request.delay_ms / 1000.0)
    started = time.perf_counter()
    if request.synthetic:
        panel = run_figure4_synthetic(
            request.fu_class, cycles=request.cycles,
            seed=request.seed, schemes=request.policies,
            swap_modes=request.swap_modes)
    else:
        if key is None:
            key = request_key(request, [p.fingerprint()
                                        for p in build_programs(request)])
        panel = run_figure4(
            request.fu_class,
            workloads=[workload(name) for name in request.workloads],
            scale=request.scale, config=request.machine_config(),
            stats_source=request.stats, schemes=request.policies,
            swap_modes=request.swap_modes, trace_cache_dir=cache_dir,
            engine=request.engine)
    result = _render_result(request, key or "", panel)
    result["meta"]["compute_seconds"] = round(
        time.perf_counter() - started, 6)
    return result


class ExecutionError(RuntimeError):
    """An evaluation failed in the worker (HTTP 500 for every waiter)."""

    def __init__(self, error: Dict[str, Any]):
        super().__init__(error.get("message", "evaluation failed"))
        self.error = error


class EvalExecutor:
    """Run each evaluation as its own one-task pool run, ``max_workers``
    at a time (see the module docstring)."""

    def __init__(self, kind: str = "pool", max_workers: int = 2,
                 task_timeout: float = 600.0):
        if kind not in ("pool", "inline"):
            raise ValueError(
                f"executor must be 'pool' or 'inline', not '{kind}'")
        self.kind = kind
        self.max_workers = max(1, max_workers)
        self.task_timeout = task_timeout
        self._slots: Optional[asyncio.Semaphore] = None
        self._threads: Set[threading.Thread] = set()
        # each miss measures its own statistics, but LUT synthesis's
        # scenario tables depend only on the module count: build the
        # default machine's now, before any miss forks, so every child
        # inherits them (paper statistics use every issue width)
        config = default_config()
        for fu_class in (FUClass.IALU, FUClass.FPAU):
            allocate_homes(paper_statistics(fu_class),
                           config.modules(fu_class))

    async def submit(self, key: str, payload: Dict[str, Any]
                     ) -> Dict[str, Any]:
        # made on first use: Python 3.9 binds a Semaphore to the event
        # loop current when it is constructed
        if self._slots is None:
            self._slots = asyncio.Semaphore(self.max_workers)
        async with self._slots:
            loop = asyncio.get_running_loop()
            future: "asyncio.Future[Dict[str, Any]]" = loop.create_future()
            thread = threading.Thread(
                target=self._evaluate, args=(key, payload, loop, future),
                name="repro-server-evaluation", daemon=True)
            thread.start()
            self._threads.add(thread)
            try:
                return await future
            finally:
                self._threads.discard(thread)

    def _evaluate(self, key: str, payload: Dict[str, Any],
                  loop: asyncio.AbstractEventLoop,
                  future: "asyncio.Future[Dict[str, Any]]") -> None:
        """The evaluation thread.  Each evaluation gets its own pool: the
        traced benchmark swaps ``pool.worker`` for the length of each
        ``run`` call."""
        def settle(outcome: Any) -> None:
            try:
                loop.call_soon_threadsafe(_settle, future, outcome)
            except RuntimeError:
                pass  # event loop already closed (server shutdown)

        pool = ProcessTaskPool(
            evaluate_request, max_workers=1, task_timeout=self.task_timeout,
            retries=0,
            executor="inline" if self.kind == "inline" else "process")
        try:
            pool.run([PoolItem(key=key, payload=payload)],
                     lambda _item, _elapsed, result: settle(result),
                     lambda _item, _elapsed, error: settle(
                         ExecutionError(error)))
        except OSError as exc:  # the launch failed: fork EAGAIN, no fds
            settle(ExecutionError(error_payload(exc)))
        finally:
            # a no-op once an outcome is settled; otherwise the pool
            # raised something unexpected, which the thread reports
            settle(ExecutionError({
                "type": "ExecutorError",
                "message": "the evaluation ended without an outcome"}))

    def close(self, timeout: float = 5.0) -> None:
        """Wait at most ``timeout`` seconds in all for running
        evaluations; the threads of any still running are daemons."""
        deadline = time.monotonic() + timeout
        for thread in list(self._threads):
            thread.join(max(0.0, deadline - time.monotonic()))


def _settle(future: "asyncio.Future[Dict[str, Any]]", outcome: Any) -> None:
    if future.done():  # settled already, or its waiter was cancelled
        return
    if isinstance(outcome, ExecutionError):
        future.set_exception(outcome)
    else:
        future.set_result(outcome)


__all__ = ["EvalExecutor", "ExecutionError", "build_programs",
           "evaluate_request"]
