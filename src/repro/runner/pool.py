"""Generic fault-tolerant worker-process pool.

The scheduling core extracted from the campaign runner so other drivers
(the parallel Figure 4 runner, future sweeps) get the same guarantees
without re-implementing them:

* **crash isolation** — a worker segfault, OOM kill, or exception fails
  that one task (with the captured traceback or exit code), never the
  run;
* **per-task timeouts** — an overdue worker is SIGKILLed and the task
  retried;
* **bounded retries with full-jitter exponential backoff** — transient
  failures get ``retries`` extra attempts, each delayed a uniformly
  random amount of the ``backoff * 2**(n-1)`` ceiling (deterministic
  backoff synchronises retry storms across a fleet of workers; the
  jitter decorrelates them);
* **graceful shutdown** — on any exit (including ``KeyboardInterrupt``)
  every in-flight worker is killed and collected.

A task is a :class:`PoolItem` — a string ``key`` plus an arbitrary
picklable ``payload`` — and the pool runs ``worker(payload)`` in a
child process for each.  Outcomes are delivered through the caller's
``on_done(item, elapsed, payload)`` / ``on_failed(item, elapsed,
error)`` callbacks, invoked in the parent as results land.

``executor="inline"`` runs each task in the calling process instead,
one at a time, with the same retry, backoff and ``limit`` rules but no
isolation: only an ``Exception`` fails a task, and
``KeyboardInterrupt``/``SystemExit`` end the run.

Chaos hooks (for the failure-path tests and CI smoke): child processes
honour ``REPRO_CAMPAIGN_TEST_DELAY`` (sleep that many seconds before
working), ``REPRO_CAMPAIGN_TEST_CRASH`` and ``REPRO_CAMPAIGN_TEST_HANG``
(key substrings; matching children SIGKILL themselves / sleep forever).
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Dict, List, Optional, Tuple

DELAY_ENV = "REPRO_CAMPAIGN_TEST_DELAY"
CRASH_ENV = "REPRO_CAMPAIGN_TEST_CRASH"
HANG_ENV = "REPRO_CAMPAIGN_TEST_HANG"


def full_jitter_delay(base: float, attempt: int, jitter: bool = True,
                      rng: Optional[random.Random] = None) -> float:
    """Retry delay before attempt ``attempt + 1``: full-jitter backoff.

    The ceiling grows exponentially (``base * 2**(attempt-1)``) and the
    actual delay is drawn uniformly from ``[0, ceiling]`` — the "full
    jitter" scheme, which keeps the expected delay at half the ceiling
    while decorrelating retries across independent workers so a shared
    failure (an overloaded host, a briefly unavailable shared
    directory) does not produce synchronised thundering-herd retries.
    ``jitter=False`` returns the deterministic ceiling itself.
    """
    ceiling = base * (2 ** (max(1, attempt) - 1))
    if not jitter:
        return ceiling
    return (rng or random).uniform(0.0, ceiling)


def error_payload(exc: BaseException) -> Dict[str, Any]:
    """Serialise an exception (plus any diagnostic snapshot)."""
    payload = {"type": type(exc).__name__, "message": str(exc),
               "traceback": traceback.format_exc()}
    snapshot = getattr(exc, "snapshot", None)
    if snapshot is not None and hasattr(snapshot, "to_dict"):
        payload["snapshot"] = snapshot.to_dict()
    return payload


@dataclass
class PoolItem:
    """One schedulable unit: an identifying key plus worker input."""

    key: str
    payload: Any
    attempt: int = 1
    not_before: float = 0.0


@dataclass
class _Running:
    item: PoolItem
    process: Any
    conn: Any
    started: float
    deadline: float
    message: Optional[Tuple[str, Any]] = None


def _child_main(worker: Callable[[Any], Any], key: str, payload: Any,
                conn) -> None:
    """Worker process entry: run one task, ship the outcome back."""
    # a forked child inherits its parent's SIGTERM handler (the
    # server's drain, a campaign worker's ^C); restore the default so
    # that ``terminate()``, e.g. of a daemon child at exit, ends it
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        delay = float(os.environ.get(DELAY_ENV, "0") or 0)
        if delay > 0:
            time.sleep(delay)
        crash = os.environ.get(CRASH_ENV)
        if crash and crash in key:
            os.kill(os.getpid(), signal.SIGKILL)
        hang = os.environ.get(HANG_ENV)
        if hang and hang in key:
            while True:
                time.sleep(3600)
        result = worker(payload)
        conn.send(("ok", result))
    except BaseException as exc:  # the parent must never inherit this
        try:
            conn.send(("error", error_payload(exc)))
        except (BrokenPipeError, OSError):
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


class ProcessTaskPool:
    """Runs ``worker(payload)`` per task across isolated processes.

    ``worker`` must be picklable under the spawn start method (a module
    top-level function); with fork any callable works.  Callbacks run
    in the parent, so they may touch non-picklable state (manifests,
    result aggregates) freely.  ``executor`` is ``"process"`` or
    ``"inline"`` (see the module docstring).
    """

    def __init__(self, worker: Callable[[Any], Any],
                 max_workers: int = 2,
                 task_timeout: float = 600.0,
                 retries: int = 1,
                 backoff: float = 0.5,
                 executor: str = "process"):
        self.worker = worker
        self.max_workers = max(1, max_workers)
        self.task_timeout = task_timeout
        self.retries = max(0, retries)
        self.backoff = backoff
        self.inline = executor == "inline"
        if "fork" in multiprocessing.get_all_start_methods():
            self._ctx = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-POSIX fallback
            self._ctx = multiprocessing.get_context("spawn")

    # ----- lifecycle of one worker ----------------------------------------

    def _launch(self, item: PoolItem) -> _Running:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_child_main,
            args=(self.worker, item.key, item.payload, child_conn),
            daemon=True)
        process.start()
        child_conn.close()
        now = time.monotonic()
        return _Running(item=item, process=process, conn=parent_conn,
                        started=now, deadline=now + self.task_timeout)

    @staticmethod
    def _reap(running: _Running) -> None:
        """Close the pipe and collect the process, forcefully if needed."""
        try:
            running.conn.close()
        except OSError:
            pass
        running.process.join(timeout=5)
        if running.process.is_alive():  # pragma: no cover - defensive
            running.process.kill()
            running.process.join(timeout=5)

    def _requeue_or_fail(self, item: PoolItem, elapsed: float,
                         error: Dict[str, Any],
                         pending: List[PoolItem],
                         on_failed: Callable[[PoolItem, float,
                                              Dict[str, Any]], None]) -> bool:
        """Apply the retry policy; returns True when the task finished
        (failed for good)."""
        if item.attempt <= self.retries:
            delay = full_jitter_delay(self.backoff, item.attempt)
            item.attempt += 1
            item.not_before = time.monotonic() + delay
            pending.append(item)
            return False
        on_failed(item, elapsed, error)
        return True

    def _run_inline(self, item: PoolItem, pending: List[PoolItem],
                    on_done: Callable[[PoolItem, float, Any], None],
                    on_failed: Callable[[PoolItem, float,
                                         Dict[str, Any]], None]) -> bool:
        """Run one task in this process; returns True when it finished."""
        started = time.monotonic()
        try:
            result = self.worker(item.payload)
        except Exception as exc:
            return self._requeue_or_fail(item, time.monotonic() - started,
                                         error_payload(exc), pending,
                                         on_failed)
        on_done(item, time.monotonic() - started, result)
        return True

    # ----- the scheduler loop ---------------------------------------------

    def run(self, items: List[PoolItem],
            on_done: Callable[[PoolItem, float, Any], None],
            on_failed: Callable[[PoolItem, float, Dict[str, Any]], None],
            limit: int = 0,
            claim: Optional[Callable[[PoolItem], bool]] = None) -> None:
        """Drain ``items`` through the pool; ``limit`` > 0 stops after
        that many tasks finish (done or failed for good).

        ``claim(item)``, when given, is asked just before each launch
        (retries included); an item it refuses is dropped without
        counting toward ``limit``.
        """
        pending = list(items)
        running: List[_Running] = []
        finished = 0
        try:
            while pending or running:
                if limit and finished >= limit and not running:
                    return
                now = time.monotonic()

                # launch ready tasks up to capacity (unless limited out)
                ready = [p for p in pending if p.not_before <= now]
                while ready and len(running) < self.max_workers \
                        and not (limit and finished >= limit):
                    item = ready.pop(0)
                    pending.remove(item)
                    if claim is not None and not claim(item):
                        continue
                    if self.inline:
                        finished += self._run_inline(item, pending,
                                                     on_done, on_failed)
                    else:
                        running.append(self._launch(item))

                if not running:
                    if pending and not (limit and finished >= limit):
                        # everything pending is backing off; sleep to
                        # the earliest wake-up
                        wake = min(p.not_before for p in pending)
                        time.sleep(min(max(wake - time.monotonic(), 0.01),
                                       1.0))
                    continue

                # wait for output, a death, or the nearest deadline
                budget = min(r.deadline for r in running) - now
                timeout = min(max(budget, 0.01), 0.25)
                ready_conns = _conn_wait([r.conn for r in running],
                                         timeout=timeout)
                for run_item in running:
                    if run_item.conn in ready_conns:
                        try:
                            run_item.message = run_item.conn.recv()
                        except (EOFError, OSError):
                            run_item.message = None  # died silently

                now = time.monotonic()
                still_running: List[_Running] = []
                for run_item in running:
                    item = run_item.item
                    elapsed = now - run_item.started
                    if run_item.message is None \
                            and not run_item.process.is_alive():
                        # a sibling can send its result and exit while
                        # this round is busy recv()ing another worker's
                        # message; once dead, anything it sent is fully
                        # buffered, so one poll() here is authoritative —
                        # without it a clean exit reads as WorkerCrashed
                        try:
                            if run_item.conn.poll():
                                run_item.message = run_item.conn.recv()
                        except (EOFError, OSError):
                            pass
                    if run_item.message is not None:
                        kind, payload = run_item.message
                        self._reap(run_item)
                        if kind == "ok":
                            on_done(item, elapsed, payload)
                            finished += 1
                        else:
                            if self._requeue_or_fail(item, elapsed, payload,
                                                     pending, on_failed):
                                finished += 1
                    elif (run_item.conn in ready_conns
                          or not run_item.process.is_alive()):
                        # EOF (or a dead child) without a message: the
                        # worker died before reporting (segfault, OOM
                        # kill, os._exit)
                        self._reap(run_item)
                        error = {"type": "WorkerCrashed",
                                 "message": "worker died without reporting"
                                 f" (exit code"
                                 f" {run_item.process.exitcode})"}
                        if self._requeue_or_fail(item, elapsed, error,
                                                 pending, on_failed):
                            finished += 1
                    elif now >= run_item.deadline:
                        run_item.process.kill()
                        self._reap(run_item)
                        error = {"type": "TaskTimeout",
                                 "message": f"exceeded {self.task_timeout}s"
                                 f" task timeout (attempt {item.attempt})"}
                        if self._requeue_or_fail(item, elapsed, error,
                                                 pending, on_failed):
                            finished += 1
                    else:
                        still_running.append(run_item)
                running = still_running
        finally:
            for run_item in running:
                run_item.process.kill()
                self._reap(run_item)


__all__ = ["CRASH_ENV", "DELAY_ENV", "HANG_ENV", "PoolItem",
           "ProcessTaskPool", "error_payload", "full_jitter_delay"]
