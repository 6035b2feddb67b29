"""Fault-tolerant experiment-campaign subsystem.

``repro.runner`` turns the repository's long serial sweeps into
resumable, crash-isolated campaigns:

* :class:`CampaignSpec` / :func:`execute_task` — declarative
  (workload × config × fault-rate) grids and the work of one cell;
* :func:`run_campaign` — a single-host run: the campaign fabric below
  with one in-process worker, keeping ``max_workers`` tasks in flight
  over a process pool (per-task timeouts, bounded retries with
  full-jitter backoff, crash isolation) or running them inline;
* :class:`DistCoordinator` / :class:`DistWorker` /
  :func:`run_distributed` — the campaign fabric: the grid sharded into
  lease-based work units on a shared directory, claimed and stolen by
  workers on any number of hosts, merged byte-stably into one
  campaign manifest (see ``docs/runner.md``);
* :class:`ShardManifest` / :class:`RecordMerge` /
  :class:`CampaignManifest` — the crash-safe per-lease JSONL journals,
  their merge, and a reader for the merged ``manifest.jsonl``;
* :class:`FaultInjector` / :func:`fault_sweep` — transient-upset
  modelling on the steering path (info-bit / operand-bit flips);
* :func:`atomic_write_text` / :func:`atomic_write_json` — the shared
  write-temp-then-rename helpers every report/JSON artifact uses.

See ``docs/runner.md`` for the manifest format, resume semantics,
distributed topology, and watchdog tuning.
"""

from .atomic import atomic_append_jsonl, atomic_write_json, atomic_write_text
from .campaign import (CONFIG_FIELDS, CampaignError, CampaignSpec, TaskSpec,
                       execute_task, task_fingerprint)
from .dist import (CampaignLayout, DistCoordinator, DistResult, DistWorker,
                   WorkerResult, run_campaign, run_distributed)
from .faults import FAULT_MODES, FaultInjector, fault_sweep
from .manifest import (CampaignManifest, ManifestError, RecordMerge,
                       ShardManifest, canonical_task_record,
                       merge_task_records, read_shard_records,
                       write_merged_manifest)
from .pool import full_jitter_delay

__all__ = [
    "atomic_append_jsonl", "atomic_write_json", "atomic_write_text",
    "CONFIG_FIELDS", "CampaignError", "CampaignSpec", "TaskSpec",
    "execute_task", "task_fingerprint",
    "CampaignLayout", "DistCoordinator", "DistResult", "DistWorker",
    "WorkerResult", "run_campaign", "run_distributed",
    "FAULT_MODES", "FaultInjector", "fault_sweep",
    "CampaignManifest", "ManifestError", "RecordMerge", "ShardManifest",
    "canonical_task_record", "merge_task_records", "read_shard_records",
    "write_merged_manifest",
    "full_jitter_delay",
]
