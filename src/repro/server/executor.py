"""Evaluation execution for the server: the work behind a cache miss.

Two executors share one worker contract (``_eval_worker(payload) ->
response dict``):

* :class:`PoolBatchExecutor` — the production path.  A dispatcher
  thread drains the admitted-work queue in *batches* and runs each
  batch on a :class:`~repro.runner.pool.ProcessTaskPool`, so the
  server inherits the pool's crash isolation, per-task SIGKILL
  timeouts, and bounded parallelism.  One batch is one ``pool.run``;
  results land back on the event loop as each task completes.
* :class:`InlineExecutor` — in-process evaluation on a thread, bounded
  by a semaphore.  No crash isolation, but tests can monkeypatch
  module state (e.g. a counting ``Simulator``) and have the evaluation
  observe it, and platforms without ``fork`` get a fallback.

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
import queue
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.energy import (Figure4Result, run_figure4,
                               run_figure4_synthetic)
from ..analysis.report import render_figure4
from ..runner.pool import PoolItem, ProcessTaskPool
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
    """Run one evaluation; the worker entry for every executor.

    ``payload`` is ``request.to_payload()`` plus ``cache_dir`` (may be
    None) and ``key``.  Runs in a pool child process or an inline
    thread; must stay picklable-in, picklable-out.
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


class InlineExecutor:
    """Run evaluations on threads in this process, ``max_workers`` at
    a time.  No crash isolation — for tests and fork-less platforms."""

    kind = "inline"

    def __init__(self, max_workers: int = 2, task_timeout: float = 600.0):
        self.max_workers = max(1, max_workers)
        # the per-request timeout is enforced by the server's wait_for;
        # kept here so both executors expose the same knobs
        self.task_timeout = task_timeout
        self._semaphore: Optional[asyncio.Semaphore] = None

    async def submit(self, key: str, payload: Dict[str, Any]
                     ) -> Dict[str, Any]:
        if self._semaphore is None:
            self._semaphore = asyncio.Semaphore(self.max_workers)
        async with self._semaphore:
            loop = asyncio.get_running_loop()
            try:
                return await loop.run_in_executor(
                    None, evaluate_request, payload)
            except Exception as exc:  # noqa: BLE001 - boundary
                raise ExecutionError({"type": type(exc).__name__,
                                      "message": str(exc)}) from exc

    def close(self) -> None:
        pass


class PoolBatchExecutor:
    """Batch admitted work through a crash-isolated process pool.

    A single dispatcher thread blocks on the work queue, drains up to
    ``max_batch`` waiting items, and runs them as one
    :meth:`ProcessTaskPool.run` batch — so concurrent distinct requests
    ride one pool invocation (``max_workers``-wide) instead of paying
    pool startup per request.  Completion callbacks hop back onto the
    event loop with ``call_soon_threadsafe``.
    """

    kind = "pool"

    def __init__(self, max_workers: int = 2, task_timeout: float = 600.0,
                 max_batch: int = 32):
        self.max_workers = max(1, max_workers)
        self.task_timeout = task_timeout
        self.max_batch = max(1, max_batch)
        self._pool = ProcessTaskPool(evaluate_request,
                                     max_workers=self.max_workers,
                                     task_timeout=task_timeout,
                                     retries=0)
        self._queue: "queue.Queue[Optional[Tuple[str, Dict[str, Any], Any, asyncio.AbstractEventLoop]]]" = queue.Queue()
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self.batches = 0
        self.batched_items = 0

    async def submit(self, key: str, payload: Dict[str, Any]
                     ) -> Dict[str, Any]:
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Dict[str, Any]]" = loop.create_future()
        self._ensure_thread()
        self._queue.put((key, payload, future, loop))
        return await future

    def _ensure_thread(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(target=self._drain,
                                            name="repro-server-executor",
                                            daemon=True)
            self._thread.start()

    def _drain(self) -> None:
        while not self._closed:
            item = self._queue.get()
            if item is None:
                return
            batch = [item]
            while len(batch) < self.max_batch:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is None:
                    self._closed = True
                    break
                batch.append(extra)
            self._run_batch(batch)

    def _run_batch(self, batch) -> None:
        self.batches += 1
        self.batched_items += len(batch)
        waiters = {}
        items = []
        for index, (key, payload, future, loop) in enumerate(batch):
            # index-suffixed so two admitted items for one key (possible
            # across response-cache evictions) stay distinct pool tasks
            task_key = f"{key}#{index}"
            waiters[task_key] = (future, loop)
            items.append(PoolItem(key=task_key, payload=payload))

        def _resolve(task_key: str, action) -> None:
            future, loop = waiters[task_key]
            try:
                loop.call_soon_threadsafe(action, future)
            except RuntimeError:
                pass  # event loop already closed (server shutdown)

        def on_done(item: PoolItem, _elapsed: float, result) -> None:
            def _set(future: "asyncio.Future") -> None:
                if not future.done():
                    future.set_result(result)
            _resolve(item.key, _set)

        def on_failed(item: PoolItem, _elapsed: float, error) -> None:
            def _set(future: "asyncio.Future") -> None:
                if not future.done():
                    future.set_exception(ExecutionError(error))
            _resolve(item.key, _set)

        self._pool.run(items, on_done, on_failed)

    def close(self) -> None:
        self._closed = True
        self._queue.put(None)
        if self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=5)


def make_executor(kind: str, max_workers: int, task_timeout: float,
                  max_batch: int = 32):
    if kind == "inline":
        return InlineExecutor(max_workers=max_workers,
                              task_timeout=task_timeout)
    if kind == "pool":
        return PoolBatchExecutor(max_workers=max_workers,
                                 task_timeout=task_timeout,
                                 max_batch=max_batch)
    raise ValueError(f"executor must be 'pool' or 'inline', not '{kind}'")


__all__ = ["ExecutionError", "InlineExecutor", "PoolBatchExecutor",
           "build_programs", "evaluate_request", "make_executor"]
