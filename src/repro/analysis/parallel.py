"""Parallel Figure 4 generation: the figure-4 tasks on a process pool.

``run_figure4(..., jobs=N)`` lands here.  The driver itself — plan,
per-workload statistics and cells tasks, ordered merge — lives in
:mod:`repro.analysis.energy` and is the same for every job count; this
module supplies only the task runner, which executes each task once
per workload on the campaign runner's
:class:`~repro.runner.pool.ProcessTaskPool` (same crash isolation,
timeouts, and retry/backoff) and returns the outcomes in workload
order.  The tasks share one trace cache — the caller's, or a private
temporary one — so each program version is still simulated exactly
once across both passes.

A workload whose task fails all its retries raises ``RuntimeError``
naming every failed workload — a partial panel silently missing suite
members would be worse than no panel.
"""

from __future__ import annotations

import contextlib
import tempfile
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..cpu.config import MachineConfig
from ..core.info_bits import InfoBitScheme
from ..isa.instructions import FUClass
from ..runner.pool import PoolItem, ProcessTaskPool
from ..workloads.base import Workload
from . import energy as _energy


class ParallelFigureRunner:
    """Runs the figure-4 tasks of one panel across a worker-process pool."""

    def __init__(self, jobs: int = 2, task_timeout: float = 1800.0,
                 retries: int = 1, backoff: float = 0.5):
        self.jobs = max(1, jobs)
        self.task_timeout = task_timeout
        self.retries = retries
        self.backoff = backoff

    def _fan_out(self, task: Callable[[Any], Dict[str, Any]],
                 payloads: List[Any]) -> List[Dict[str, Any]]:
        """Run ``task`` once per workload payload; outcomes in *payload*
        order."""
        results: Dict[str, Any] = {}
        failures: Dict[str, str] = {}
        items = [PoolItem(key=load.name, payload=(plan, load))
                 for plan, load in payloads]

        def on_done(item: PoolItem, elapsed: float, payload: Any) -> None:
            results[item.key] = payload

        def on_failed(item: PoolItem, elapsed: float,
                      error: Dict[str, Any]) -> None:
            failures[item.key] = (f"{error.get('type', 'Error')}:"
                                  f" {error.get('message', '')}")

        pool = ProcessTaskPool(task, max_workers=self.jobs,
                               task_timeout=self.task_timeout,
                               retries=self.retries, backoff=self.backoff)
        pool.run(items, on_done, on_failed)
        if failures:
            detail = "; ".join(f"{name} ({reason})"
                               for name, reason in sorted(failures.items()))
            raise RuntimeError(f"figure4 workload tasks failed: {detail}")
        return [results[item.key] for item in items]

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
        """:func:`repro.analysis.energy.run_figure4` with its tasks on
        this pool — same arguments, bit-identical result."""
        # pool tasks cannot hand streams over in memory, so they share
        # a cache: a caller with none gets a private temporary one
        shared = (contextlib.nullcontext(trace_cache_dir)
                  if trace_cache_dir is not None
                  else tempfile.TemporaryDirectory(prefix="repro-figure4-"))
        with shared as cache_dir:
            plan = _energy._plan(fu_class, workloads, scale, config,
                                 stats_source, schemes, swap_modes, scheme,
                                 engine, cache_dir)
            return _energy._run_plan(plan, self._fan_out,
                                     trace_cache_dir is not None,
                                     trace_cache_limit_mb)


__all__ = ["ParallelFigureRunner"]
