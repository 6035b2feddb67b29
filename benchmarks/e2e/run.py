#!/usr/bin/env python3
"""End-to-end benchmark of the Figure 4 reproduction.

    python3 benchmarks/e2e/run.py --workload fig4-warm --seed 1 \\
        --seconds 20 --trace 0 [--output runs.jsonl] [--perfetto t.json]

Run from the repository root.  The program is driven only through its
public surfaces: ``python -m repro`` subprocesses and HTTP.  All load
comes from this one process, over at most two connections.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (spans recorded
by ``traced.py``).  Outputs are checked against ``expected.json``; a
wrong output exits 1, a tripped validity guard exits 3 with no result.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from layers import coverage, layer_metrics, span_problems
from openloop import (HOT_REQUESTS, STRATA, Connection, LoopResult, Request,
                      backlog_growth, fresh_sequence, request_stream,
                      run_open_loop, send_in_turn)
from percentiles import nearest_rank, tail_or_max, tail_percentile
from spans import ITER_ENV, SPAN_DIR_ENV, chrome_trace, load_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WORKLOADS = ("fig4-cold", "fig4-warm", "campaign-faults", "serve-mix")

#: open-loop rate of serve-mix, requests per second
SERVE_RATE = 20.0
#: fresh keys per serve-mix pass: one of each stratum
FRESH_PASS = len(STRATA)
#: share of an untraced serve-mix run spent on the open-loop mix; the
#: fresh-key passes that fill the rest (two at 20 s) give the timings
MIX_SHARE = 0.4
#: niceness of the server tree under load (see Server)
SERVER_NICE = 10
#: validity guard: generator lateness p99, seconds
MAX_LATENESS_P99 = 0.005
#: open-loop steps tried on fresh servers before a tripped validity
#: guard fails the run (a tripped step is discarded, never measured)
MIX_ATTEMPTS = 3
#: per-command timeout (a run must end within 180 s)
COMMAND_TIMEOUT = 90.0
#: ``repro --version`` runs whose median is a CLI workload's set-up time
SETUP_RUNS = 5

CAMPAIGN_CONFIGS = {
    "default": {},
    "narrow": {"fetch_width": 2, "dispatch_width": 2, "retire_width": 2},
    "deep": {"rob_entries": 128, "rs_entries_per_class": 32},
}
CAMPAIGN_ARGS = ["--workloads", "compress", "li", "go", "cc1", "perl",
                 "m88ksim", "--policies", "original", "lut-4", "1bit-ham",
                 "--fault-rates", "0", "0.01", "--max-workers", "2"]
CAMPAIGN_CELLS = 36


class InvalidRun(Exception):
    """A validity guard tripped: the run would not measure the program."""


@dataclass
class Command:
    """One finished ``repro`` process tree."""

    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: bytes


@dataclass
class Iteration:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    spans: Optional[Path] = None
    extra: Dict[str, float] = field(default_factory=dict)

    def add(self, command: Command) -> None:
        self.wall += command.wall
        self.cpu += command.cpu
        self.rss_mb = max(self.rss_mb, command.rss_mb)


class Bench:
    """State of one benchmark run: settings, counters, processes."""

    def __init__(self, seed: int, seconds: float, trace: bool, work: Path):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.samples: Dict[str, Any] = {}
        self.all_spans: List[Dict[str, Any]] = []
        self.groups: List[int] = []  # process groups still to reap
        (work / "tmp").mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        TMPDIR=str(work / "tmp"))

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def spawn(self, args, spans: Optional[Path], stdout, stderr
              ) -> subprocess.Popen:
        """Start ``python -m repro <args>``, or the traced shim writing
        spans to ``spans``, in a process group of its own."""
        argv = [sys.executable, "-m", "repro", *args]
        env = self.env
        if spans is not None:
            argv = [sys.executable, str(HERE / "traced.py"), *args]
            spans.mkdir(parents=True, exist_ok=True)
            env = dict(env, **{SPAN_DIR_ENV: str(spans),
                               ITER_ENV: spans.name})
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env,
                                cwd=ROOT, start_new_session=True)
        self.groups.append(proc.pid)
        return proc

    def reap(self, proc: subprocess.Popen, timeout: float
             ) -> Tuple[int, Any, float]:
        """Wait for ``proc`` with ``os.wait4`` (the rusage covers every
        descendant it reaped); SIGKILL its group past ``timeout``."""
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        done = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # strays left in the group, if any
        self.groups.remove(proc.pid)
        return proc.returncode, usage, done

    def run(self, *args: str, spans: Optional[Path] = None) -> Command:
        """One ``repro`` command to completion."""
        out_path = self.work / "stdout"
        with open(out_path, "wb") as out, \
                open(self.work / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = self.spawn(args, spans, out, err)
            code, usage, done = self.reap(proc, COMMAND_TIMEOUT)
        return Command(wall=done - start,
                       cpu=usage.ru_utime + usage.ru_stime,
                       rss_mb=usage.ru_maxrss / 1024.0, code=code,
                       stdout=out_path.read_bytes())

    def cleanup(self) -> None:
        for group in list(self.groups):
            _kill_group(group)
            try:
                os.waitpid(group, 0)
            except ChildProcessError:
                pass
        self.groups.clear()


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _expected() -> Dict[str, str]:
    return json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ----- the CLI workloads ------------------------------------------------------


def figure4_panels(bench: Bench, cache: Path, jobs: int,
                   spans: Optional[Path] = None) -> Iteration:
    """``repro figure4 {ialu,fpau} --compiler`` against ``cache``."""
    expected = _expected()
    iteration = Iteration(spans=spans)
    for fu in ("ialu", "fpau"):
        command = bench.run("figure4", fu, "--compiler", "--jobs", str(jobs),
                            "--cache-dir", str(cache), spans=spans)
        digest = _sha256(command.stdout)
        bench.check(command.code == 0
                    and digest == expected[f"figure4_{fu}_sha256"],
                    f"figure4 {fu}: exit {command.code}, stdout sha256"
                    f" {digest[:12]}")
        iteration.add(command)
    return iteration


def fig4_cold(bench: Bench, index: int, spans: Optional[Path]) -> Iteration:
    cache = bench.work / f"cold-{index}"
    try:
        return figure4_panels(bench, cache, jobs=2, spans=spans)
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def fig4_warm_setup(bench: Bench) -> Callable:
    cache = bench.work / "warm-cache"
    figure4_panels(bench, cache, jobs=2)  # untimed: fills the cache

    def iteration(bench: Bench, index: int, spans: Optional[Path]
                  ) -> Iteration:
        return figure4_panels(bench, cache, jobs=1, spans=spans)
    return iteration


def _campaign_cells(results: Dict[str, Any]) -> Dict[str, Any]:
    """Cell data minus the fields that legitimately vary per run."""
    cells = {}
    for task_id, record in results["tasks"].items():
        result = {key: value for key, value in record["result"].items()
                  if key not in ("trace_cache", "telemetry")}
        cells[task_id] = {"status": record["status"], "result": result}
    return cells


def campaign_setup(bench: Bench) -> Callable:
    configs = bench.work / "configs.json"
    configs.write_text(json.dumps(CAMPAIGN_CONFIGS), encoding="utf-8")
    reference: List[str] = []

    def iteration(bench: Bench, index: int, spans: Optional[Path]
                  ) -> Iteration:
        out = bench.work / f"campaign-{index}"
        try:
            command = bench.run(
                "campaign", "--dir", str(out), *CAMPAIGN_ARGS,
                "--configs-json", str(configs), "--seed", str(bench.seed),
                spans=spans)
            result = Iteration(spans=spans)
            result.add(command)
            try:
                results = json.loads((out / "results.json").read_text())
            except (OSError, ValueError):
                bench.check(False, f"campaign: exit {command.code},"
                                   " no results.json")
                return result
            cells = _campaign_cells(results)
            done = sum(1 for cell in cells.values()
                       if cell["status"] == "done")
            digest = _sha256(json.dumps(cells, sort_keys=True).encode())
            rate0 = {key: cell for key, cell in cells.items()
                     if cell["result"].get("fault_rate") == 0}
            rate0_digest = _sha256(json.dumps(rate0, sort_keys=True).encode())
            reference.append(digest)
            bench.check(command.code == 0 and done == CAMPAIGN_CELLS
                        and digest == reference[0]
                        and rate0_digest == _expected()[
                            "campaign_rate0_sha256"],
                        f"campaign: exit {command.code}, {done} done,"
                        f" cells {digest[:12]} (first {reference[0][:12]}),"
                        f" rate-0 cells {rate0_digest[:12]}")
            result.extra["runner.retries"] = float(sum(
                record["attempts"] - 1
                for record in results["tasks"].values()))
            return result
        finally:
            shutil.rmtree(out, ignore_errors=True)
    return iteration


def version_setup_times(bench: Bench) -> List[float]:
    """Wall time of ``repro --version``: interpreter start plus import,
    :data:`SETUP_RUNS` times."""
    times = []
    for _ in range(SETUP_RUNS):
        command = bench.run("--version")
        bench.check(command.code == 0
                    and command.stdout.startswith(b"repro "),
                    f"--version: exit {command.code}")
        times.append(command.wall)
    return times


def cli_workload(bench: Bench, iteration: Callable) -> Dict[str, float]:
    """Run iterations until ``--seconds`` would be exceeded, and at
    least two, so a median has two samples and the campaign's
    determinism check a second iteration to compare.

    Traced runs alternate traced and untraced iterations (at least one
    of each) so the tracing overhead is measured within the run.
    """
    setup = version_setup_times(bench)
    plain: List[Iteration] = []
    traced: List[Iteration] = []
    start = time.monotonic()
    while True:
        use_trace = bench.trace and len(traced) <= len(plain)
        index = len(plain) + len(traced)
        spans = bench.work / f"spans-{index}" if use_trace else None
        (traced if use_trace else plain).append(
            iteration(bench, index, spans))
        walls = [it.wall for it in plain + traced]
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(walls) > bench.seconds \
                and len(walls) >= 2 and plain \
                and (traced or not bench.trace):
            break
    bench.samples = {"setup_s": setup,
                     "wall_s": [it.wall for it in plain],
                     "cpu_s": [it.cpu for it in plain],
                     "peak_rss_mb": [it.rss_mb for it in plain],
                     "traced_wall_s": [it.wall for it in traced]}
    if bench.trace:
        return traced_metrics(bench, traced, plain)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(it.wall for it in plain),
        "cpu_s": statistics.median(it.cpu for it in plain),
        "peak_rss_mb": statistics.median(it.rss_mb for it in plain),
    }


def traced_metrics(bench: Bench, traced: List[Iteration],
                   plain: List[Iteration]) -> Dict[str, float]:
    """Per-layer metrics: the median over traced iterations."""
    per_iteration = []
    for it in traced:
        spans = spans_of(bench, it.spans)
        metrics = layer_metrics(spans)
        metrics.update(SERVER_ZERO)
        metrics["runner.retries"] = it.extra.get("runner.retries", 0.0)
        metrics["trace.coverage_frac"] = coverage(spans)
        per_iteration.append(metrics)
    result = {name: statistics.median(m[name] for m in per_iteration)
              for name in per_iteration[0]}
    result["trace.overhead_frac"] = (
        statistics.median(it.wall for it in traced)
        / statistics.median(it.wall for it in plain) - 1.0)
    return result


def spans_of(bench: Bench, directory: Path) -> List[Dict[str, Any]]:
    """Load one traced command's spans; refuse if a target is missing."""
    missing = directory / "missing.json"
    if missing.exists():
        raise InvalidRun("wrapped functions no longer exist (missing): "
                         + ", ".join(json.loads(missing.read_text())))
    spans = load_spans(directory)
    problems = span_problems(spans)
    if problems:
        raise InvalidRun("; ".join(problems))
    bench.all_spans.extend(spans)
    return spans


# ----- serve-mix --------------------------------------------------------------

SERVER_ZERO = {"server.executions": 0.0, "server.coalesced": 0.0,
               "server.cache_hit_ratio": 0.0, "server.rejected": 0.0,
               "server.timeouts": 0.0, "server.compute_ms.p50": 0.0,
               "server.hit_ms.p50": 0.0, "server.tail_ms": 0.0}


class Server:
    """One ``repro serve`` process on an OS-assigned port."""

    def __init__(self, bench: Bench, cache: Path,
                 spans: Optional[Path] = None):
        self.bench = bench
        self.stderr = open(bench.work / "server.stderr", "ab")
        args = ("serve", "--port", "0", "--cache-dir", str(cache),
                "--max-workers", "2")
        start = time.perf_counter()
        self.proc = bench.spawn(args, spans, subprocess.PIPE, self.stderr)
        # the load generator shares two CPUs with the server and its pool
        # children; lowering the server tree's priority keeps the
        # generator on schedule, as if it ran on another machine
        os.setpriority(os.PRIO_PROCESS, self.proc.pid, SERVER_NICE)
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    COMMAND_TIMEOUT)
        line = self.proc.stdout.readline() if ready else b""
        self.setup_s = time.perf_counter() - start
        try:
            self.port = json.loads(line)["port"]
        except (ValueError, KeyError):
            self.stop()
            raise RuntimeError(f"server did not announce itself: {line!r}")

    def idle_cpu(self) -> float:
        """CPU seconds of the server and the children it has reaped,
        read once no pool child is left to reap (so none of the warm-up
        lands in the step)."""
        proc_dir = Path(f"/proc/{self.proc.pid}")
        deadline = time.monotonic() + 5.0
        while any(path.read_text().strip() for path in
                  proc_dir.glob("task/*/children")) \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        fields = (proc_dir / "stat").read_text().rsplit(")", 1)[1].split()
        ticks = sum(int(value) for value in fields[11:15])
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> Any:
        """SIGTERM (graceful drain), then reap; returns the rusage."""
        try:
            os.kill(self.proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        _, usage, _ = self.bench.reap(self.proc, 30.0)
        self.proc.stdout.close()
        self.stderr.close()
        return usage


async def _get(port: int, path: str) -> Dict[str, Any]:
    conn = Connection("127.0.0.1", port)
    try:
        return json.loads((await conn.request("GET", path)).body)
    finally:
        await conn.close()


async def _warm(port: int) -> Tuple[List[str], List[bytes]]:
    """Compute the hot keys once; returns their ETags and bodies."""
    conn = Connection("127.0.0.1", port)
    etags, bodies = [], []
    try:
        for payload in HOT_REQUESTS:
            response = await conn.request(
                "POST", "/v1/evaluate",
                json.dumps(payload, sort_keys=True).encode())
            if response.status != 200:
                raise RuntimeError(f"warming hot key: {response.status}")
            etags.append(response.headers["etag"])
            bodies.append(response.body)
    finally:
        await conn.close()
    return etags, bodies


@dataclass
class Step:
    """One server's life: started, warmed, loaded, stopped."""

    setup_s: float
    cpu: float                   # server-tree CPU during the load, seconds
    rss_mb: float
    counters: Dict[str, float]   # /metrics.json deltas over the load
    warmed: Any                  # what ``warm`` returned
    result: Any                  # what ``load`` returned


def serve_step(bench: Bench, cache: Path, load: Callable,
               warm: Optional[Callable] = None,
               spans: Optional[Path] = None) -> Step:
    """Start a server on ``cache``, run ``warm(port)`` untimed, then
    ``load(port, warmed)`` with the server's CPU and counters measured
    around it, and stop the server."""
    server = Server(bench, cache, spans)
    try:
        warmed = asyncio.run(warm(server.port)) if warm else None
        before = asyncio.run(_get(server.port, "/metrics.json"))["counters"]
        cpu_start = server.idle_cpu()
        result = asyncio.run(load(server.port, warmed))
        after = asyncio.run(_get(server.port, "/metrics.json"))["counters"]
    finally:
        usage = server.stop()
    return Step(setup_s=server.setup_s,
                cpu=usage.ru_utime + usage.ru_stime - cpu_start,
                rss_mb=usage.ru_maxrss / 1024.0,
                counters={name: after.get(name, 0) - before.get(name, 0)
                          for name in set(after) | set(before)},
                warmed=warmed, result=result)


def guard_problem(result: LoopResult) -> Optional[str]:
    """Why an open-loop step measured the harness rather than the
    server, or None.

    Lateness is judged at p99, or, when fewer than ten samples lie
    beyond p99, at the highest percentile that has ten (the rule of
    ``percentiles``): with 160 requests a "p99" is the second-latest
    wake-up, so a single time the host descheduled the generator would
    decide it.
    """
    lateness = sorted(result.lateness)
    tail = tail_percentile(lateness)
    percentile, late = ((99.0, nearest_rank(lateness, 9900))
                        if tail is None or tail[0] >= 99.0 else tail[:2])
    if late > MAX_LATENESS_P99:
        return (f"generator lateness p{percentile:g} {late * 1e3:.2f} ms >"
                f" {MAX_LATENESS_P99 * 1e3:.0f} ms")
    growth = backlog_growth(result.dues, result.completions)
    if growth > max(5.0, 0.1 * SERVE_RATE):
        return (f"backlog grew by {growth:.0f} requests over the"
                f" {SERVE_RATE:.0f} rps step")
    return None


def mix_step(bench: Bench, cache: Path, schedule: List[Request],
             spans: Optional[Path] = None) -> Tuple[Step, Dict[str, float]]:
    """The open-loop mix on a fresh server: check the validity guards
    and every response; returns the step and its ``server.*`` per-layer
    metrics.  A step that trips a guard is discarded (spans included)
    and run again on a fresh server, up to :data:`MIX_ATTEMPTS` times."""
    for _ in range(MIX_ATTEMPTS):
        if spans is not None:
            shutil.rmtree(spans, ignore_errors=True)
        step = serve_step(
            bench, cache,
            lambda port, warmed: run_open_loop("127.0.0.1", port, schedule,
                                               warmed[0]),
            warm=_warm, spans=spans)
        problem = guard_problem(step.result)
        if problem is None:
            break
        print(f"serve-mix: open-loop step discarded: {problem}",
              file=sys.stderr)
    else:
        raise InvalidRun(f"{problem}, on all {MIX_ATTEMPTS} attempts")
    result = step.result

    hot_bodies = step.warmed[1]
    seen: Dict[bytes, bytes] = {}
    compute_ms, hit_ms = [], []
    for request, outcome in zip(schedule, result.outcomes):
        response = outcome.response
        if response is None:
            bench.check(False, f"{request.kind}: {outcome.error}")
            continue
        if request.kind == "revalidate":
            bench.check(response.status == 304,
                        f"revalidate: status {response.status}")
            continue
        first = seen.setdefault(request.body, response.body)
        if request.kind == "hot":
            first = hot_bodies[request.hot]
        bench.check(response.status == 200 and response.body == first,
                    f"{request.kind}: status {response.status}, body"
                    f" {'same' if response.body == first else 'differs'}")
        if response.headers.get("x-cache") == "hit":
            hit_ms.append(outcome.service * 1e3)
        if "x-compute-seconds" in response.headers:
            compute_ms.append(
                float(response.headers["x-compute-seconds"]) * 1e3)

    counters = step.counters
    hits = counters.get("server.cache.hits", 0) \
        + counters.get("server.http.304", 0)
    asked = hits + counters.get("server.cache.misses", 0)
    return step, {
        "server.executions": float(counters.get("server.executions", 0)),
        "server.coalesced": float(counters.get("server.coalesced.waiters",
                                               0)),
        "server.cache_hit_ratio": hits / asked if asked else 0.0,
        "server.rejected": float(
            counters.get("server.rejected.queue_full", 0)
            + counters.get("server.rejected.draining", 0)),
        "server.timeouts": float(counters.get("server.timeouts", 0)),
        "server.compute_ms.p50": (statistics.median(compute_ms)
                                  if compute_ms else 0.0),
        "server.hit_ms.p50": statistics.median(hit_ms) if hit_ms else 0.0,
        "server.tail_ms": tail_or_max(
            [o.latency for o in result.outcomes]) * 1e3,
    }


def fresh_pass(bench: Bench, cache: Path, bodies: List[bytes],
               seen: Dict[bytes, bytes]) -> Step:
    """``bodies`` one at a time on a fresh server.  Each must be
    computed (not served from a cache), and each key's body must be the
    same on every pass (``seen`` holds the first)."""
    step = serve_step(bench, cache, lambda port, _: send_in_turn(
        "127.0.0.1", port, bodies))
    for body, outcome in zip(bodies, step.result):
        response = outcome.response
        if response is None:
            bench.check(False, f"fresh in turn: {outcome.error}")
            continue
        first = seen.setdefault(body, response.body)
        source = response.headers.get("x-cache")
        bench.check(response.status == 200 and source == "computed"
                    and response.body == first,
                    f"fresh in turn: status {response.status}, x-cache"
                    f" {source}, body"
                    f" {'same' if response.body == first else 'differs'}")
    return step


def serve_mix(bench: Bench) -> Dict[str, float]:
    """An untraced run spends :data:`MIX_SHARE` of ``--seconds`` on the
    open-loop mix and the rest on fresh-key passes, which give
    ``wall_s`` and ``cpu_s``.  The open loop's few misses collide with
    each other in the server's batches and on the two CPUs, so their
    latency swings by a third from run to run and their CPU time by a
    fifth.  A traced run spends half on a traced server and half on an
    untraced one, both with the open-loop mix."""
    cache = bench.work / "serve-cache"
    figure4_panels(bench, cache, jobs=2)  # untimed: fills the trace cache
    share = 0.5 if bench.trace else MIX_SHARE
    count = 10 * max(1, round(SERVE_RATE * bench.seconds * share / 10))
    schedule = request_stream(bench.seed, SERVE_RATE, count)
    server = Server(bench, cache)  # one more set-up sample
    setups = [server.setup_s]
    server.stop()
    if bench.trace:
        traced, _ = mix_step(bench, cache, schedule,
                             bench.work / "spans-serve")
        plain, metrics = mix_step(bench, cache, schedule)
        spans = spans_of(bench, bench.work / "spans-serve")
        metrics.update(layer_metrics(spans))
        metrics["runner.retries"] = 0.0
        metrics["trace.coverage_frac"] = coverage(spans)
        metrics["trace.overhead_frac"] = traced.cpu / plain.cpu - 1.0
        bench.samples = {"setup_s": setups}
        return metrics

    start = time.monotonic()
    mix, _ = mix_step(bench, cache, schedule)
    bodies = fresh_sequence(bench.seed, FRESH_PASS)
    seen: Dict[bytes, bytes] = {}
    passes: List[Step] = []
    took: List[float] = []
    while not passes or (time.monotonic() - start + statistics.median(took)
                         <= bench.seconds):
        began = time.monotonic()
        passes.append(fresh_pass(bench, cache, bodies, seen))
        took.append(time.monotonic() - began)
    latencies = [o.latency for step in passes for o in step.result]
    setups += [step.setup_s for step in [mix, *passes]]
    bench.samples = {"setup_s": setups, "fresh_latency_s": latencies,
                     "mix_latency_s": [o.latency
                                       for o in mix.result.outcomes]}
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.mean(latencies),
        "cpu_s": sum(step.cpu for step in passes) / len(latencies),
        "peak_rss_mb": max(step.rss_mb for step in [mix, *passes]),
    }


# ----- entry point ------------------------------------------------------------

def declared_metrics(trace: bool) -> List[Dict[str, Any]]:
    """The metrics ``BENCHMARK.json`` declares for this mode, in order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(name: str, seed: int, seconds: float, trace: bool
                 ) -> Tuple[Bench, Dict[str, float]]:
    work = HERE / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(seed, seconds, trace, work)
    try:
        if name == "serve-mix":
            metrics = serve_mix(bench)
        elif name == "fig4-cold":
            metrics = cli_workload(bench, fig4_cold)
        elif name == "fig4-warm":
            metrics = cli_workload(bench, fig4_warm_setup(bench))
        else:
            metrics = cli_workload(bench, campaign_setup(bench))
    finally:
        bench.cleanup()
        shutil.rmtree(work, ignore_errors=True)
    return bench, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--output",
                        help="append each run's full record (JSON line)")
    parser.add_argument("--perfetto",
                        help="write the traced run's spans as a"
                             " Chrome/Perfetto trace")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a"
              " checkout of the repository", file=sys.stderr)
        return 2
    if len(os.sched_getaffinity(0)) < 2:
        print("invalid run: fewer than 2 CPUs; the pool workloads would"
              " measure time slicing", file=sys.stderr)
        return 3

    declared = declared_metrics(bool(args.trace))
    names = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        try:
            bench, metrics = run_workload(name, args.seed, args.seconds,
                                          bool(args.trace))
        except InvalidRun as exc:
            print(f"invalid run ({name}): {exc}", file=sys.stderr)
            return 3
        if set(metrics) != {metric["name"] for metric in declared}:
            raise RuntimeError(
                f"measured metrics differ from BENCHMARK.json:"
                f" {sorted(set(metrics) ^ {m['name'] for m in declared})}")
        correct = bench.failed == 0
        for problem in bench.problems:
            print(f"{name}: FAILED {problem}", file=sys.stderr)
        result = {"correct": correct, "attempted": bench.attempted,
                  "failed": bench.failed, "metrics": {}}
        for metric in declared:
            value = metrics[metric["name"]]
            result["metrics"][metric["name"]] = {"value": value,
                                                 "unit": metric["unit"]}
            print(f"{name} {metric['name']} = {value:.6g} {metric['unit']}")
        if args.output:
            record = dict(result, workload=name, seed=args.seed,
                          seconds=args.seconds, trace=bool(args.trace),
                          samples=bench.samples, problems=bench.problems,
                          time=time.time())
            with open(args.output, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
        if args.perfetto and bench.all_spans:
            Path(args.perfetto).write_text(
                json.dumps(chrome_trace(bench.all_spans)), encoding="utf-8")
        print(json.dumps(result), flush=True)
        status = status or (0 if correct else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
