"""Parallel Figure 4 generation: per-workload fan-out, ordered merge.

``run_figure4(..., jobs=N)`` lands here.  The suite is split one
workload per task and executed on the campaign runner's
:class:`~repro.runner.pool.ProcessTaskPool` (same crash isolation,
timeouts, and retry/backoff), in two phases sharing one trace cache:

1. **statistics** — each worker simulates (or replays) its workload and
   returns the bit-pattern/module-usage partials; the parent folds them
   into suite-wide :class:`~repro.core.statistics.CaseStatistics`.
   Skipped entirely for ``stats_source="paper"``.
2. **cells** — each worker replays its workload (and its
   compiler-swapped rewrite) through the full evaluator grid, exactly
   the per-program body of the serial driver, and returns integer cell
   totals.

**Byte-stability**: every partial is a sum of integers, and the parent
merges results in workload order — never arrival order — so the final
:class:`~repro.analysis.energy.Figure4Result` is identical whatever the
job count or scheduling jitter.  Workers share the content-addressed
trace cache (a private temporary one when the caller has none), so each
program version is still simulated exactly once across both phases.

A workload whose task fails all its retries raises ``RuntimeError``
naming every failed workload — a partial panel silently missing suite
members would be worse than no panel.
"""

from __future__ import annotations

import tempfile
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..core.statistics import CaseStatistics, paper_statistics
from ..core.swapping import choose_swap_case
from ..compiler import swap_optimize
from ..cpu.config import MachineConfig, default_config
from ..core.info_bits import InfoBitScheme, scheme_for
from ..isa.instructions import FUClass
from ..runner.pool import PoolItem, ProcessTaskPool
from ..workloads.base import Workload, float_suite, integer_suite
from .bit_patterns import BitPatternCollector
from .module_usage import ModuleUsageCollector
from . import energy as _energy


# ----- worker side (top-level, so the spawn start method can pickle) ---------


def _resolve_scheme(payload: Dict[str, Any]) -> Optional[InfoBitScheme]:
    # schemes are identity-compared singletons, so workers rebuild the
    # default from the FU class rather than unpickling a copy; only a
    # caller-supplied custom scheme ships as an object
    return payload["scheme"] or scheme_for(FUClass(payload["fu"]))


def _stats_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Phase 1: one workload's Table 1/2 partials (and a cache entry)."""
    from ..workloads import workload as get_workload
    fu_class = FUClass(payload["fu"])
    config = payload["config"]
    scheme = _resolve_scheme(payload)
    program = get_workload(payload["workload"]).build(payload["scale"])
    stream, hit = _energy._captured_stream(program, config, fu_class,
                                           payload["cache_dir"],
                                           payload["engine"])
    patterns = BitPatternCollector(fu_class, scheme=scheme)
    usage = ModuleUsageCollector([fu_class])
    _energy.drive_stream(stream, [patterns, usage])
    return {
        "hit": bool(hit),
        "total_ops": patterns.total_ops,
        "rows": {key: (row.count, row.ones_op1, row.ones_op2)
                 for key, row in patterns.rows.items()},
        "usage": {fu.value: dict(widths)
                  for fu, widths in usage.counts.items()},
    }


def _cells_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Phase 2: one workload through the full (scheme × swap) grid —
    the per-program body of the serial ``run_figure4``, verbatim."""
    from ..compiler.swap_pass import denser_first_from_swap_case
    from ..workloads import workload as get_workload
    fu_class = FUClass(payload["fu"])
    config = payload["config"]
    scheme = _resolve_scheme(payload)
    stats: CaseStatistics = payload["stats"]
    schemes: Sequence[str] = payload["schemes"]
    swap_modes: Sequence[str] = payload["swap_modes"]
    num_modules = config.modules(fu_class)
    program = get_workload(payload["workload"]).build(payload["scale"])

    result = _energy.Figure4Result(fu_class=fu_class,
                                   workload_names=[payload["workload"]],
                                   statistics=stats)
    stream, plain_hit = _energy._captured_stream(program, config, fu_class,
                                                 payload["cache_dir"],
                                                 payload["engine"])
    plain_modes = [m for m in ("none", "hw") if m in swap_modes]
    if "none" not in plain_modes:
        plain_modes.append("none")  # the baseline cell is always needed
    _energy._evaluate_modes(stream, program.name, fu_class, num_modules,
                            stats, scheme, schemes, plain_modes, result)
    compiler_hit: Optional[bool] = None
    if any("compiler" in m for m in swap_modes):
        direction = {fu_class:
                     denser_first_from_swap_case(choose_swap_case(stats))}
        swapped, _report = swap_optimize(program, denser_first=direction)
        compiler_modes = [m for m in ("compiler", "hw+compiler")
                          if m in swap_modes]
        sw_stream, compiler_hit = _energy._captured_stream(
            swapped, config, fu_class, payload["cache_dir"],
            payload["engine"])
        _energy._evaluate_modes(sw_stream, swapped.name, fu_class,
                                num_modules, stats, scheme, schemes,
                                compiler_modes, result)
    return {
        "plain_hit": bool(plain_hit),
        "compiler_hit": compiler_hit,
        "cells": [(kind, mode, cell.switched_bits, cell.operations,
                   cell.hardware_swaps)
                  for (kind, mode), cell in result.cells.items()],
        "per_workload": [(kind, mode, bits)
                         for (kind, mode), bits
                         in result.per_workload[payload["workload"]].items()],
    }


# ----- the parent-side runner -------------------------------------------------


class ParallelFigureRunner:
    """Fans one Figure 4 panel across a worker-process pool."""

    def __init__(self, jobs: int = 2, task_timeout: float = 1800.0,
                 retries: int = 1, backoff: float = 0.5):
        self.jobs = max(1, jobs)
        self.task_timeout = task_timeout
        self.retries = retries
        self.backoff = backoff

    def _pool(self, worker) -> ProcessTaskPool:
        return ProcessTaskPool(worker, max_workers=self.jobs,
                               task_timeout=self.task_timeout,
                               retries=self.retries, backoff=self.backoff)

    def _fan_out(self, worker, payloads: List[Dict[str, Any]]
                 ) -> List[Dict[str, Any]]:
        """Run one payload per workload; results in *payload* order."""
        results: Dict[str, Any] = {}
        failures: Dict[str, str] = {}
        items = [PoolItem(key=p["workload"], payload=p) for p in payloads]

        def on_done(item: PoolItem, elapsed: float, payload: Any) -> None:
            results[item.key] = payload

        def on_failed(item: PoolItem, elapsed: float,
                      error: Dict[str, Any]) -> None:
            failures[item.key] = (f"{error.get('type', 'Error')}:"
                                  f" {error.get('message', '')}")

        self._pool(worker).run(items, on_done, on_failed)
        if failures:
            detail = "; ".join(f"{name} ({reason})"
                               for name, reason in sorted(failures.items()))
            raise RuntimeError(f"figure4 workload tasks failed: {detail}")
        return [results[p["workload"]] for p in payloads]

    def run_figure4(self, fu_class: FUClass,
                    workloads: Optional[Iterable[Workload]] = None,
                    scale: Optional[int] = None,
                    config: Optional[MachineConfig] = None,
                    stats_source: str = "measured",
                    schemes: Sequence[str] = _energy.SCHEMES,
                    swap_modes: Sequence[str] = ("none", "hw",
                                                 "hw+compiler"),
                    scheme: Optional[InfoBitScheme] = None,
                    trace_cache_dir=None,
                    engine: str = "batch",
                    trace_cache_limit_mb: Optional[float] = None
                    ) -> "_energy.Figure4Result":
        """The parallel twin of :func:`repro.analysis.energy.run_figure4`
        — same arguments, bit-identical result."""
        # checked here too (not just in run_figure4) so a direct caller
        # cannot ship an unknown engine to the workers
        _energy._check_engine(engine)
        if stats_source not in ("measured", "paper"):
            raise ValueError("stats_source must be 'measured' or 'paper'")
        config = config or default_config()
        if workloads is None:
            workloads = (integer_suite() if fu_class is FUClass.IALU
                         else float_suite())
        workloads = list(workloads)
        # all phases (and all workers) share one cache so every program
        # version simulates exactly once; a caller with no cache gets a
        # private temporary one for the duration of the run
        scratch: Optional[tempfile.TemporaryDirectory] = None
        cache_dir = trace_cache_dir
        if cache_dir is None:
            scratch = tempfile.TemporaryDirectory(prefix="repro-figure4-")
            cache_dir = scratch.name
        try:
            return self._run(fu_class, workloads, scale, config,
                             stats_source, schemes, swap_modes, scheme,
                             cache_dir, engine,
                             external_cache=trace_cache_dir is not None,
                             trace_cache_limit_mb=trace_cache_limit_mb)
        finally:
            if scratch is not None:
                scratch.cleanup()

    def _run(self, fu_class, workloads, scale, config, stats_source,
             schemes, swap_modes, scheme, cache_dir, engine,
             external_cache: bool,
             trace_cache_limit_mb: Optional[float]
             ) -> "_energy.Figure4Result":
        base = {"fu": fu_class.value, "scale": scale, "config": config,
                "scheme": scheme, "cache_dir": str(cache_dir),
                "engine": engine}
        payloads = [dict(base, workload=w.name) for w in workloads]

        stats_hits = None
        if stats_source == "paper":
            stats = paper_statistics(fu_class)
        else:
            partials = self._fan_out(_stats_worker, payloads)
            stats = self._merge_statistics(fu_class, config, scheme,
                                           partials)
            stats_hits = [p["hit"] for p in partials]

        cell_payloads = [dict(p, stats=stats, schemes=tuple(schemes),
                              swap_modes=tuple(swap_modes))
                         for p in payloads]
        outcomes = self._fan_out(_cells_worker, cell_payloads)

        result = _energy.Figure4Result(
            fu_class=fu_class, workload_names=[w.name for w in workloads],
            statistics=stats)
        hits = misses = 0
        for index, outcome in enumerate(outcomes):
            # the first touch of each unmodified program happened in
            # phase 1 when it ran, so provenance counters match the
            # serial driver's (phase 2 always re-hits the shared cache)
            plain_hit = (stats_hits[index] if stats_hits is not None
                         else outcome["plain_hit"])
            hits += plain_hit
            misses += not plain_hit
            if outcome["compiler_hit"] is not None:
                hits += outcome["compiler_hit"]
                misses += not outcome["compiler_hit"]
            for kind, mode, bits, ops, swaps in outcome["cells"]:
                cell = result.cells.setdefault(
                    (kind, mode), _energy.CellResult(kind, mode))
                cell.switched_bits += bits
                cell.operations += ops
                cell.hardware_swaps += swaps
            name = workloads[index].name
            breakdown = result.per_workload.setdefault(name, {})
            for kind, mode, bits in outcome["per_workload"]:
                breakdown[(kind, mode)] = breakdown.get((kind, mode), 0) \
                    + bits
        result.cache_hits = hits if external_cache else 0
        result.cache_misses = misses if external_cache else 0
        result.simulations = misses
        if external_cache and trace_cache_limit_mb is not None:
            from pathlib import Path
            from ..compiler.swap_pass import denser_first_from_swap_case
            from ..streams import prune_trace_cache, trace_cache_key
            used = [w.build(scale) for w in workloads]
            if any("compiler" in m for m in swap_modes):
                direction = {fu_class: denser_first_from_swap_case(
                    choose_swap_case(stats))}
                used.extend(swap_optimize(p, denser_first=direction)[0]
                            for p in list(used))
            protect = [Path(cache_dir) / (
                trace_cache_key(p, config, (fu_class,)) + ".trace.gz")
                for p in used]
            prune_trace_cache(cache_dir, trace_cache_limit_mb,
                              protect=protect)
        return result

    @staticmethod
    def _merge_statistics(fu_class: FUClass, config: MachineConfig,
                          scheme: Optional[InfoBitScheme],
                          partials: List[Dict[str, Any]]) -> CaseStatistics:
        """Fold the workers' integer partials into suite statistics —
        associative sums, folded in workload order."""
        patterns = BitPatternCollector(fu_class, scheme=scheme)
        usage = ModuleUsageCollector([fu_class])
        for partial in partials:
            patterns.total_ops += partial["total_ops"]
            for key, (count, ones1, ones2) in partial["rows"].items():
                row = patterns.rows[key]
                row.count += count
                row.ones_op1 += ones1
                row.ones_op2 += ones2
            for fu_value, widths in partial["usage"].items():
                per_class = usage.counts.setdefault(FUClass(fu_value), {})
                for width, count in widths.items():
                    per_class[width] = per_class.get(width, 0) + count
        distribution = usage.distribution(
            fu_class, max_width=config.modules(fu_class))
        return patterns.to_statistics(distribution)


__all__ = ["ParallelFigureRunner"]
