"""Campaign grids and the execution of one grid cell.

A campaign expands a declarative grid of (workload × machine config ×
fault rate) tasks; each task scores every requested steering policy in
one simulation pass.  This module holds the grid (:class:`CampaignSpec`,
:class:`TaskSpec`, :func:`task_fingerprint`) and the work of one cell
(:func:`execute_task`).  Scheduling lives in :mod:`repro.runner.dist`:
a single-host run (:func:`~repro.runner.dist.run_campaign`) is the
distributed fabric with one in-process worker, so every campaign is
sharded, leased, journaled, retried and resumed the same way.

The unit of work is deliberately one whole simulation: simulating is
the expensive part, and all policies share the pass via
:class:`~repro.core.steering.SharedEvaluationCoordinator`, exactly as
the interactive experiment drivers do.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

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
