"""The layers the traced run times, and the per-layer metrics.

Each row of :data:`TARGETS` names one public function or method of
``repro``, the span its calls record, and what the span keeps from the
call.  :func:`layer_metrics` turns the spans of one traced iteration
into the per-layer metrics listed in ``BENCHMARK.json``.  Times ending
in ``_s`` are seconds summed over every process of the iteration
(pool children included); "self" means minus the time spent in child
spans.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from spans import Recorder, covered, self_times, timed

#: policy families whose fused kernels are timed one by one
FAMILIES = ("original", "round-robin", "full-ham", "1bit-ham", "lut", "bdd")


def _file_bytes(result, args, kwargs) -> Dict[str, Any]:
    """Size of the file written (the first argument is its path)."""
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _cycles(result, args, kwargs) -> Dict[str, Any]:
    return {"cycles": result.cycles}


def _hit(result, args, kwargs) -> Dict[str, Any]:
    return {"hit": result is not None}


def _acquired(result, args, kwargs) -> Dict[str, Any]:
    return {"acquired": bool(result)}


def _swaps(result, args, kwargs) -> Dict[str, Any]:
    report = result[1]
    return {"swapped": report.swapped, "candidates": report.candidates}


def _request_key(args, kwargs) -> Optional[str]:
    payload = args[0] if args else kwargs["payload"]
    return payload.get("key")


#: (module, qualname, span name, attrs, request id) per wrapped target
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable], Optional[Callable]],
               ...] = (
    ("repro.cpu.simulator", "Simulator.run", "cpu.simulate", _cycles, None),
    ("repro.cpu.tracefile", "write_trace", "streams.trace_write",
     _file_bytes, None),
    ("repro.streams", "cached_source", "streams.lookup", _hit, None),
    ("repro.streams", "cached_or_record", "streams.cached_or_record",
     None, None),
    # no metric of its own: as a child span it keeps recording time out
    # of cached_or_record's self time, which is then the lock wait
    ("repro.streams", "record_cached", "streams.record", None, None),
    ("repro.streams", "TraceCacheLock.acquire", "streams.lock_acquire",
     _acquired, None),
    ("repro.streams", "drive", "streams.drive", None, None),
    ("repro.batch.columns", "pack_stream", "batch.pack", None, None),
    ("repro.batch.sidecar", "write_sidecar", "batch.sidecar_write",
     _file_bytes, None),
    ("repro.batch.sidecar", "load_sidecar", "batch.sidecar_load", None, None),
    ("repro.batch.kernels", "batch_drive", "batch.drive", None, None),
    ("repro.core.steering", "make_policy", "core.make_policy", None, None),
    ("repro.core.lut", "build_lut", "core.build_lut", None, None),
    ("repro.compiler.swap_pass", "swap_optimize", "compiler.swap_optimize",
     _swaps, None),
    ("repro.compiler.profiling", "profile_program", "compiler.profile",
     None, None),
    ("repro.workloads.base", "Workload.build", "workloads.build", None, None),
    ("repro.isa.assembler", "assemble", "isa.assemble", None, None),
    ("repro.analysis.energy", "run_figure4", "analysis.figure4", None, None),
    ("repro.analysis.parallel", "ParallelFigureRunner.run_figure4",
     "analysis.figure4", None, None),
    ("repro.analysis.energy", "statistics_from_sources",
     "analysis.statistics", None, None),
    ("repro.analysis.report", "render_figure4", "analysis.render",
     None, None),
    ("repro.server.executor", "evaluate_request", "server.evaluate",
     None, _request_key),
)


def _kernel_factory_wrapper(recorder: Recorder):
    """``PolicyRegistry.kernel_factory``: time the runners it hands out.

    A lookup that finds no kernel, or whose factory declines the
    evaluator, is a fall-through (to the next backend or the object
    path) and is counted as one.
    """
    def make(original):
        def kernel_factory(self, policy, backend):
            factory = original(self, policy, backend)
            if factory is None:
                recorder.event("batch.kernel_fallthrough")
                return None
            family = self.family_of(policy).name

            def timed_factory(evaluator, columns):
                runner = factory(evaluator, columns)
                if runner is None:
                    recorder.event("batch.kernel_fallthrough")
                    return None
                return timed(recorder, f"batch.kernel.{family}", runner)

            return timed_factory
        kernel_factory.__wrapped__ = original
        return kernel_factory
    return make


def _pool_run_wrapper(recorder: Recorder):
    """``ProcessTaskPool.run``: one span for the pool, and one root span
    per task in the child that runs it (the worker is wrapped for the
    duration of the call, and fork hands the wrapper to the child)."""
    def make(original):
        def run(self, items, *args, **kwargs):
            worker = self.worker
            self.worker = timed(recorder, "runner.task", worker)
            span = recorder.open("runner.pool")
            try:
                return original(self, items, *args, **kwargs)
            finally:
                recorder.close(span, {"workers": self.max_workers,
                                      "items": len(items)})
                self.worker = worker
        run.__wrapped__ = original
        return run
    return make


def targets(recorder: Recorder) -> List[Tuple[str, str, Callable]]:
    """Every (module, qualname, make_wrapper) the traced run installs."""
    rows: List[Tuple[str, str, Callable]] = []
    for module, qualname, name, attrs, request in TARGETS:
        def make(original, name=name, attrs=attrs, request=request):
            return timed(recorder, name, original, attrs, request)
        rows.append((module, qualname, make))
    rows.append(("repro.core.registry", "PolicyRegistry.kernel_factory",
                 _kernel_factory_wrapper(recorder)))
    rows.append(("repro.runner.pool", "ProcessTaskPool.run",
                 _pool_run_wrapper(recorder)))
    return rows


# ----- per-layer metrics ------------------------------------------------------


def layer_metrics(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """The per-layer metrics of one traced iteration."""
    selfs = self_times(spans)
    duration: Dict[str, float] = {}
    own: Dict[str, float] = {}
    count: Dict[str, int] = {}
    attr: Dict[Tuple[str, str], float] = {}
    pool_capacity = 0.0
    for span in spans:
        name = span["name"]
        duration[name] = duration.get(name, 0.0) + span["end"] - span["start"]
        own[name] = own.get(name, 0.0) + selfs[span["id"]]
        count[name] = count.get(name, 0) + 1
        for key, value in (span.get("attrs") or {}).items():
            if key != "attr_error":
                attr[(name, key)] = attr.get((name, key), 0.0) + float(value)
        if name == "runner.pool":
            pool_capacity += ((span["end"] - span["start"])
                              * span["attrs"]["workers"])

    def dur(name: str) -> float:
        return duration.get(name, 0.0)

    def self_of(name: str) -> float:
        return own.get(name, 0.0)

    simulate_s = dur("cpu.simulate")
    cycles = attr.get(("cpu.simulate", "cycles"), 0.0)
    candidates = attr.get(("compiler.swap_optimize", "candidates"), 0.0)
    acquires = count.get("streams.lock_acquire", 0)
    metrics = {
        "cpu.simulate_s": simulate_s,
        "cpu.simulations": count.get("cpu.simulate", 0),
        "cpu.sim_cycles": cycles,
        "cpu.cycles_per_s": cycles / simulate_s if simulate_s else 0.0,
        "streams.trace_write_s": dur("streams.trace_write"),
        "streams.trace_bytes": attr.get(("streams.trace_write", "bytes"), 0.0),
        "streams.lookup_calls": count.get("streams.lookup", 0),
        "streams.lookup_hits": attr.get(("streams.lookup", "hit"), 0.0),
        "streams.lock_wait_s": self_of("streams.cached_or_record"),
        "streams.lock_contended":
            acquires - attr.get(("streams.lock_acquire", "acquired"), 0.0),
        "streams.object_drive_s": self_of("streams.drive"),
        "batch.pack_s": dur("batch.pack"),
        "batch.sidecar_write_s": dur("batch.sidecar_write"),
        "batch.sidecar_bytes":
            attr.get(("batch.sidecar_write", "bytes"), 0.0),
        "batch.sidecar_load_s": dur("batch.sidecar_load"),
        "batch.kernel_s.stats": self_of("batch.drive"),
        "batch.kernel_fallthrough": count.get("batch.kernel_fallthrough", 0),
        "core.policy_builds": count.get("core.make_policy", 0),
        "core.policy_build_s": self_of("core.make_policy"),
        "core.lut_synthesis_s": dur("core.build_lut"),
        "compiler.swap_pass_s": self_of("compiler.swap_optimize"),
        "compiler.profile_s": dur("compiler.profile"),
        "compiler.swap_fraction":
            (attr.get(("compiler.swap_optimize", "swapped"), 0.0)
             / candidates) if candidates else 0.0,
        "workloads.build_s": self_of("workloads.build"),
        "isa.assemble_s": dur("isa.assemble"),
        "analysis.figure4_self_s": self_of("analysis.figure4"),
        "analysis.statistics_s": self_of("analysis.statistics"),
        "analysis.render_s": dur("analysis.render"),
        "runner.tasks": count.get("runner.task", 0),
        "runner.task_s": dur("runner.task"),
        "runner.pool_s": self_of("runner.pool"),
        "runner.pool_overhead_frac":
            1.0 - dur("runner.task") / pool_capacity if pool_capacity else 0.0,
    }
    for family in FAMILIES:
        metrics[f"batch.kernel_s.{family}"] = dur(f"batch.kernel.{family}")
    return metrics


def span_problems(spans: List[Dict[str, Any]]) -> List[str]:
    """Why these spans cannot be trusted: a wrapper failed to read its
    call, or a kernel family ran that :data:`FAMILIES` does not list
    (its time would silently fall out of the per-family metrics)."""
    problems = sorted({f"{span['name']}: {span['attrs']['attr_error']}"
                       for span in spans
                       if "attr_error" in (span.get("attrs") or {})})
    families = {span["name"][len("batch.kernel."):] for span in spans
                if span["name"].startswith("batch.kernel.")}
    problems += [f"kernel family '{family}' is not in FAMILIES"
                 for family in sorted(families - set(FAMILIES))]
    return problems


#: spans that only drive other layers: their self time explains nothing
DRIVERS = ("cli.main", "analysis.figure4", "runner.pool", "runner.task")


def coverage(spans: List[Dict[str, Any]]) -> float:
    """Share of the in-process time that the self times of named layers
    (every span but :data:`DRIVERS`) explain.

    In-process time is the duration of every root span: ``cli.main`` in
    the command's process and ``runner.task`` in each pool child.  The
    stretches in which ``runner.pool`` only waits for its children are
    taken out, as their task spans count instead; the rest of the pool's
    self time (forking, collecting) stays unexplained.
    """
    selfs = self_times(spans)
    by_id = {span["id"]: span for span in spans}
    waits: Dict[str, List[Tuple[float, float]]] = {}
    total = 0.0
    for span in spans:
        if span["parent"] is None:
            total += span["end"] - span["start"]
            link = by_id.get(span["link"])
            if link is not None and link["name"] == "runner.pool":
                waits.setdefault(span["link"], []).append(
                    (span["start"], span["end"]))
    unexplained = sum(selfs[span["id"]] for span in spans
                      if span["name"] in DRIVERS)
    for pool_id, tasks in waits.items():
        pool = by_id[pool_id]
        waited = min(covered(tasks, pool["start"], pool["end"]),
                     selfs[pool_id])
        total -= waited
        unexplained -= waited
    return 1.0 - unexplained / total if total else 0.0
