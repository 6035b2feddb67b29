"""Fault-tolerant experiment-campaign runner.

Expands a declarative grid of (workload × machine config × fault rate)
tasks — each task scores every requested steering policy in one
simulation pass — and executes it across a pool of worker *processes*
with:

* **crash isolation** — a worker segfault, OOM kill, or exception
  marks that one task failed (with the captured traceback or exit
  code), never the campaign;
* **per-task timeouts** — an overdue worker is SIGKILLed and the task
  retried;
* **bounded retries with full-jitter exponential backoff** — transient
  failures get ``retries`` extra attempts, each delayed a uniformly
  random slice of the ``backoff * 2**(n-1)`` ceiling so fleets of
  workers never retry in lockstep;
* **journaled progress** — every outcome is recorded in a JSONL
  manifest rewritten atomically (write-temp-then-rename), so a
  campaign killed at any instant resumes from the last completed task;
* **graceful degradation** — the final report renders failed cells as
  explicit gaps carrying the failure reason instead of aborting.

The unit of work is deliberately one whole simulation: simulating is
the expensive part, and all policies share the pass via
:class:`~repro.core.steering.SharedEvaluationCoordinator`, exactly as
the interactive experiment drivers do.

Chaos hooks (for the failure-path tests and CI smoke): workers honour
``REPRO_CAMPAIGN_TEST_DELAY`` (sleep that many seconds before
simulating), ``REPRO_CAMPAIGN_TEST_CRASH`` and
``REPRO_CAMPAIGN_TEST_HANG`` (task-id substrings; matching workers
SIGKILL themselves / sleep forever).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .manifest import CampaignManifest, ManifestError
from .pool import (CRASH_ENV, DELAY_ENV, HANG_ENV, PoolItem, ProcessTaskPool,
                   error_payload as _error_payload, full_jitter_delay)

PathLike = Union[str, Path]

# MachineConfig fields a campaign grid may override per config cell;
# everything here is a scalar, so specs stay trivially JSON-able
CONFIG_FIELDS = frozenset({
    "fetch_width", "dispatch_width", "retire_width", "rob_entries",
    "rs_entries_per_class", "branch_predictor_entries", "branch_predictor",
    "mispredict_penalty", "max_cycles", "watchdog_cycles",
})

class CampaignError(RuntimeError):
    """The campaign cannot run (bad spec, unresumable manifest, ...)."""


@dataclass(frozen=True)
class TaskSpec:
    """One cell of the campaign grid — picklable, self-contained."""

    task_id: str
    workload: str
    scale: int
    config_name: str
    config: Dict[str, Any]
    policies: Tuple[str, ...]
    fault_rate: float = 0.0
    fault_mode: str = "info"
    fu: str = "ialu"
    seed: int = 0
    # execution detail injected by the runner, not part of the grid
    # identity: directory of content-addressed recorded issue streams.
    # Deliberately absent from CampaignSpec.to_dict()/fingerprint(), so
    # toggling the cache never invalidates a resumable manifest.
    trace_cache_dir: Optional[str] = None


@dataclass
class CampaignSpec:
    """Declarative description of the experiment grid.

    ``configs`` maps a config name to a dict of
    :class:`~repro.cpu.config.MachineConfig` overrides (scalar fields
    only, see ``CONFIG_FIELDS``).  The grid is the cross product
    workloads × scales × configs × fault_rates; each task evaluates all
    ``policies`` in a single simulation pass.
    """

    workloads: Tuple[str, ...]
    policies: Tuple[str, ...] = ("original", "lut-4")
    scales: Tuple[int, ...] = (1,)
    configs: Dict[str, Dict[str, Any]] = field(
        default_factory=lambda: {"default": {}})
    fault_rates: Tuple[float, ...] = (0.0,)
    fault_mode: str = "info"
    fu: str = "ialu"
    seed: int = 0

    def __post_init__(self) -> None:
        self.workloads = tuple(self.workloads)
        self.policies = tuple(self.policies)
        self.scales = tuple(int(s) for s in self.scales)
        self.fault_rates = tuple(float(r) for r in self.fault_rates)
        if not self.workloads:
            raise CampaignError("campaign needs at least one workload")
        if not self.policies:
            raise CampaignError("campaign needs at least one policy")
        # fail at spec build, not as "-" columns in the final report:
        # a typo'd policy name used to surface only after the grid ran
        from ..core.registry import PolicyNameError, REGISTRY
        for kind in self.policies:
            try:
                REGISTRY.resolve(kind)
            except PolicyNameError as exc:
                raise CampaignError(str(exc)) from None
        for name, overrides in self.configs.items():
            unknown = set(overrides) - CONFIG_FIELDS
            if unknown:
                raise CampaignError(
                    f"config '{name}' overrides unknown MachineConfig"
                    f" fields: {sorted(unknown)}")

    def tasks(self) -> List[TaskSpec]:
        """Expand the grid into concrete tasks, in deterministic order."""
        out = []
        for workload in self.workloads:
            for scale in self.scales:
                for config_name, overrides in sorted(self.configs.items()):
                    for rate in self.fault_rates:
                        task_id = (f"{workload}@s{scale}/{config_name}"
                                   f"/r{rate:g}")
                        out.append(TaskSpec(
                            task_id=task_id, workload=workload, scale=scale,
                            config_name=config_name, config=dict(overrides),
                            policies=self.policies, fault_rate=rate,
                            fault_mode=self.fault_mode, fu=self.fu,
                            seed=self.seed))
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {"workloads": list(self.workloads),
                "policies": list(self.policies),
                "scales": list(self.scales),
                "configs": {k: dict(v) for k, v in self.configs.items()},
                "fault_rates": list(self.fault_rates),
                "fault_mode": self.fault_mode,
                "fu": self.fu,
                "seed": self.seed}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CampaignSpec":
        return cls(workloads=tuple(payload["workloads"]),
                   policies=tuple(payload["policies"]),
                   scales=tuple(payload.get("scales", (1,))),
                   configs=payload.get("configs", {"default": {}}),
                   fault_rates=tuple(payload.get("fault_rates", (0.0,))),
                   fault_mode=payload.get("fault_mode", "info"),
                   fu=payload.get("fu", "ialu"),
                   seed=payload.get("seed", 0))

    def fingerprint(self) -> str:
        """Stable hash of the expanded grid, for resume validation."""
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def task_fingerprint(task: TaskSpec) -> str:
    """Content fingerprint of one grid cell.

    Hashes every field that determines the cell's *result* — and
    deliberately not ``trace_cache_dir``, which is an execution detail.
    This is the last-write-wins merge key for distributed campaigns:
    two records with the same cell fingerprint measured the same
    physics, so a duplicate from a stolen-then-completed shard is
    interchangeable with the original.
    """
    ident = {"task_id": task.task_id, "workload": task.workload,
             "scale": task.scale, "config_name": task.config_name,
             "config": dict(task.config), "policies": list(task.policies),
             "fault_rate": task.fault_rate, "fault_mode": task.fault_mode,
             "fu": task.fu, "seed": task.seed}
    canon = json.dumps(ident, sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


# ----- the worker side --------------------------------------------------------


def execute_task(task: TaskSpec) -> Dict[str, Any]:
    """Run one task in the current process and return its result dict.

    Importable so the inline executor and unit tests can call it
    directly; the process pool runs it inside ``_child_main``.
    """
    from ..core.statistics import paper_statistics
    from ..core.steering import (PolicyEvaluator,
                                 SharedEvaluationCoordinator, make_policy)
    from ..cpu.config import MachineConfig
    from ..isa.instructions import FUClass
    from ..telemetry import TelemetryConfig, TelemetrySession
    from ..workloads import workload as get_workload
    from .. import streams
    from .faults import FaultInjector

    fu_class = FUClass(task.fu)
    config = MachineConfig(**task.config) if task.config else MachineConfig()
    # metrics-only session: counters merge across worker processes via
    # the summary dict in the manifest; sampling/tracing stay off so a
    # big grid does not bloat the JSONL or slow the sweep
    session = TelemetrySession(TelemetryConfig(metrics=True))
    load = get_workload(task.workload)
    program = load.build(task.scale)
    stats = paper_statistics(fu_class)
    num_modules = config.modules(fu_class)

    coordinator = SharedEvaluationCoordinator(fu_class)
    injectors: Dict[str, FaultInjector] = {}
    for kind in task.policies:
        policy = make_policy(kind, fu_class, num_modules, stats=stats)
        injector = None
        if task.fault_rate:
            # one injector per evaluator, same seed: every policy sees
            # the identical upset sequence on the identical stream
            injector = FaultInjector(task.fault_rate, mode=task.fault_mode,
                                     seed=task.seed)
            injectors[kind] = injector
        coordinator.add(PolicyEvaluator(fu_class, num_modules, policy,
                                        fault_injector=injector,
                                        telemetry=session))

    # fault injectors here corrupt only each policy's *view*, never the
    # published stream, so every cell that shares (workload, scale,
    # machine config) shares one recorded stream regardless of policy
    # set or fault rate — exactly what the content-addressed cache keys
    # on.  A hit replays the entry instead of simulating; its pack
    # carries the original run's summary and counters.
    cache_state = "off"
    if task.trace_cache_dir:
        # fleet-safe lookup: across every worker process on every host
        # sharing this cache directory, one records and the rest replay
        # (streams.cached_or_record contends on the per-key advisory
        # lock).  On a miss our consumers rode the recording pass.
        packed, cache_state = streams.cached_or_record(
            program, config, task.trace_cache_dir, (fu_class,),
            telemetry=session, extra_consumers=[coordinator])
        sim_result = packed.result
        if cache_state == "hit":
            if injectors:
                # fault views are injected per evaluator inside the
                # shared pass; keep the object path
                streams.drive(streams.PackedSource(packed), [coordinator])
            else:
                # warm hit with no fault injection: score every
                # evaluator through the fused columnar kernels
                # (bit-identical to the shared object pass;
                # tests/batch/test_parity.py).  A kernel error fails
                # the task rather than re-driving half-counted totals
                from ..batch import batch_drive
                batch_drive(packed, coordinator.evaluators)
            session.add_collector(sim_result.telemetry_counters)
    else:
        live = streams.LiveSource(program, config, telemetry=session)
        sim_result = streams.drive(live, [coordinator])

    policies: Dict[str, Dict[str, Any]] = {}
    baseline_bits: Optional[int] = None
    for kind, totals in zip(task.policies, coordinator.totals()):
        policies[kind] = {"switched_bits": totals.switched_bits,
                          "operations": totals.operations}
        if kind == "original" and baseline_bits is None:
            baseline_bits = totals.switched_bits
    if baseline_bits:
        for kind, cell in policies.items():
            cell["saving"] = 1.0 - cell["switched_bits"] / baseline_bits
    wrong_path_frac = (sim_result.squashed_ops / sim_result.executed_ops
                       if sim_result.executed_ops else 0.0)
    return {
        "workload": task.workload,
        "scale": task.scale,
        "config": task.config_name,
        "fault_rate": task.fault_rate,
        "cycles": sim_result.cycles,
        "retired": sim_result.retired_instructions,
        "ipc": round(sim_result.ipc, 4),
        "wrong_path_frac": round(wrong_path_frac, 4),
        "fault_flips": sum(i.flips for i in injectors.values()),
        "policies": policies,
        "trace_cache": cache_state,
        "telemetry": session.summary(),
    }


# ----- the scheduler side -----------------------------------------------------


@dataclass
class _PendingTask:
    task: TaskSpec
    attempt: int = 1
    not_before: float = 0.0


@dataclass
class CampaignResult:
    """Outcome of one ``CampaignRunner.run`` invocation."""

    total_tasks: int
    done: int = 0
    failed: int = 0
    skipped: int = 0       # satisfied by a previous run's manifest
    remaining: int = 0     # left pending (hit --limit or interrupt)
    interrupted: bool = False
    manifest_path: Optional[Path] = None
    tasks: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.remaining == 0 and not self.interrupted


class CampaignRunner:
    """Executes a :class:`CampaignSpec` grid with fault tolerance.

    ``executor`` is ``"process"`` (default: full isolation, timeouts,
    crash containment) or ``"inline"`` (tasks run in this process —
    fast and deterministic for tests/sweeps, but a hang or crash is
    *not* contained).
    """

    def __init__(self, spec: CampaignSpec, out_dir: PathLike,
                 max_workers: int = 2,
                 task_timeout: float = 600.0,
                 retries: int = 1,
                 backoff: float = 0.5,
                 executor: str = "process",
                 resume: bool = False,
                 retry_failed: bool = False,
                 limit: int = 0,
                 trace_cache: bool = True,
                 jitter: bool = True):
        if executor not in ("process", "inline"):
            raise CampaignError("executor must be 'process' or 'inline'")
        self.spec = spec
        self.out_dir = Path(out_dir)
        # content-addressed recorded issue streams under out_dir; cells
        # sharing (workload, scale, machine config) simulate once and
        # replay thereafter.  Off: every task simulates, as before.
        self.trace_cache = trace_cache
        self.trace_cache_dir = self.out_dir / "trace-cache"
        self.max_workers = max(1, max_workers)
        self.task_timeout = task_timeout
        self.retries = max(0, retries)
        self.backoff = backoff
        self.jitter = jitter
        self.executor = executor
        self.resume = resume
        self.retry_failed = retry_failed
        self.limit = max(0, limit)
        self.manifest_path = self.out_dir / "manifest.jsonl"
        self.manifest: Optional[CampaignManifest] = None

    # ----- manifest lifecycle --------------------------------------------

    def _open_manifest(self) -> CampaignManifest:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        fingerprint = self.spec.fingerprint()
        if self.manifest_path.exists():
            if not self.resume:
                raise CampaignError(
                    f"{self.manifest_path} already exists; pass"
                    " resume=True (CLI: --resume) to continue it, or"
                    " choose a fresh --dir")
            manifest = CampaignManifest.load(self.manifest_path)
            if manifest.fingerprint != fingerprint:
                raise CampaignError(
                    f"{self.manifest_path} was written by a different"
                    f" campaign grid (fingerprint {manifest.fingerprint}"
                    f" != {fingerprint}); refusing to mix results")
            return manifest
        if self.resume:
            # resuming onto an empty directory is just a fresh start
            pass
        return CampaignManifest.create(self.manifest_path, fingerprint,
                                       self.spec.to_dict())

    # ----- main loop ------------------------------------------------------

    def run(self) -> CampaignResult:
        """Execute (or resume) the grid; returns the campaign outcome.

        On ``KeyboardInterrupt`` the manifest is flushed, in-flight
        workers are killed, and the interrupt is re-raised for the CLI
        to translate into exit code 130.
        """
        manifest = self.manifest = self._open_manifest()
        all_tasks = self.spec.tasks()
        if self.trace_cache:
            cache_dir = str(self.trace_cache_dir)
            all_tasks = [dataclasses.replace(task,
                                             trace_cache_dir=cache_dir)
                         for task in all_tasks]
        result = CampaignResult(total_tasks=len(all_tasks),
                                manifest_path=self.manifest_path)

        pending: List[_PendingTask] = []
        for task in all_tasks:
            status = manifest.status_of(task.task_id)
            if status == "done":
                result.skipped += 1
            elif status == "failed" and not self.retry_failed:
                result.skipped += 1
            else:
                if status == "failed":
                    manifest.forget(task.task_id)
                pending.append(_PendingTask(task))

        try:
            if self.executor == "inline":
                self._run_inline(pending, manifest, result)
            else:
                self._run_pool(pending, manifest, result)
        except KeyboardInterrupt:
            result.interrupted = True
            manifest.flush()
            raise
        finally:
            result.tasks = dict(manifest.tasks)
            result.remaining = sum(
                1 for task in all_tasks
                if manifest.status_of(task.task_id) is None)
        return result

    # ----- inline executor ------------------------------------------------

    def _run_inline(self, pending: List[_PendingTask],
                    manifest: CampaignManifest,
                    result: CampaignResult) -> None:
        finished = 0
        queue = list(pending)
        while queue:
            if self.limit and finished >= self.limit:
                return
            item = queue.pop(0)
            wait = item.not_before - time.monotonic()
            if wait > 0:
                # serial executor: sleeping out the backoff is exact
                time.sleep(wait)
            started = time.monotonic()
            try:
                outcome = execute_task(item.task)
            except KeyboardInterrupt:
                raise
            except BaseException as exc:
                elapsed = time.monotonic() - started
                if item.attempt <= self.retries:
                    delay = full_jitter_delay(self.backoff, item.attempt,
                                              jitter=self.jitter)
                    item.attempt += 1
                    item.not_before = time.monotonic() + delay
                    queue.append(item)
                    continue
                manifest.record_failed(item.task.task_id, item.attempt,
                                       elapsed, _error_payload(exc))
                result.failed += 1
                finished += 1
                continue
            manifest.record_done(item.task.task_id, item.attempt,
                                 time.monotonic() - started, outcome)
            result.done += 1
            finished += 1

    # ----- process-pool executor -----------------------------------------

    def _run_pool(self, pending: List[_PendingTask],
                  manifest: CampaignManifest,
                  result: CampaignResult) -> None:
        pool = ProcessTaskPool(execute_task,
                               max_workers=self.max_workers,
                               task_timeout=self.task_timeout,
                               retries=self.retries,
                               backoff=self.backoff,
                               jitter=self.jitter)
        items = [PoolItem(key=p.task.task_id, payload=p.task,
                          attempt=p.attempt, not_before=p.not_before)
                 for p in pending]

        def on_done(item: PoolItem, elapsed: float, payload: Any) -> None:
            manifest.record_done(item.key, item.attempt, elapsed, payload)
            result.done += 1

        def on_failed(item: PoolItem, elapsed: float,
                      error: Dict[str, Any]) -> None:
            manifest.record_failed(item.key, item.attempt, elapsed, error)
            result.failed += 1

        pool.run(items, on_done, on_failed, limit=self.limit)


def run_campaign(spec: CampaignSpec, out_dir: PathLike,
                 **runner_kwargs) -> CampaignResult:
    """Convenience wrapper: build a runner and execute the grid."""
    return CampaignRunner(spec, out_dir, **runner_kwargs).run()
