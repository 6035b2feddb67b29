"""Campaign manifests: per-shard JSONL journals and their merge.

Every campaign, single-host or distributed, runs on the shard fabric
(:mod:`repro.runner.dist`).  Each (shard, lease) attempt journals its
task outcomes to its own *shard manifest* (:class:`ShardManifest`):
``done`` records carry the measured result, ``failed`` ones the
captured error (exception type, message, traceback, and, for simulator
aborts, the diagnostic snapshot).  The file is rewritten through the
atomic write-temp-then-rename helper after every task, so a worker
killed at *any* instant leaves either the previous complete journal or
the new one — never a torn line.

The campaign manifest ``manifest.jsonl`` is the merge of every
journal: :class:`RecordMerge` folds records (one at a time, so a
single-host run can rewrite the manifest after each task) and
:func:`write_merged_manifest` writes the canonical result.  The merge
is a pure function of the record *set*: any permutation of shard files
— including duplicates left behind by a stolen-then-completed shard —
produces the byte-identical campaign manifest, with last-write-wins
keyed on each cell's content fingerprint.  :meth:`CampaignManifest.load`
reads it back, lenient about trailing garbage (a manifest copied off a
dying machine, say): corrupt lines are dropped and counted, not fatal.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Tuple,
                    Union)

from .atomic import atomic_append_jsonl, atomic_write_text

MANIFEST_VERSION = 1
SHARD_MANIFEST_VERSION = 1

#: result keys that legitimately differ between equivalent executions
#: (which worker hit the shared trace cache first is a scheduling
#: accident, not physics) — stripped when canonicalising for the merge
VOLATILE_RESULT_KEYS = ("trace_cache",)

#: telemetry metric kinds recorded only by the *live* recording pass:
#: a cache hit replays the original run's counters from the trace
#: header (bit-identical), but the simulator's occupancy gauges and
#: width histograms exist only on the pass that simulated — i.e. their
#: presence encodes who won the recording race, not physics
VOLATILE_METRIC_KINDS = ("gauges", "histograms")

PathLike = Union[str, Path]


class ManifestError(RuntimeError):
    """The manifest is unusable (bad header, fingerprint mismatch)."""


class CampaignManifest:
    """Read-only view of a merged campaign manifest."""

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self.header: Optional[Dict[str, Any]] = None
        # task id -> latest record for that task
        self.tasks: Dict[str, Dict[str, Any]] = {}
        self.dropped_lines = 0

    @classmethod
    def load(cls, path: PathLike) -> "CampaignManifest":
        """Read an existing manifest, tolerating trailing corruption."""
        manifest = cls(path)
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ManifestError(f"cannot read manifest {path}: {exc}") \
                from exc
        records, manifest.dropped_lines = _json_lines(text)
        for record in records:
            event = record.get("event")
            if event == "campaign":
                if record.get("version") != MANIFEST_VERSION:
                    raise ManifestError(
                        f"{path}: unsupported manifest version"
                        f" {record.get('version')!r}")
                manifest.header = record
            elif event == "task" and "id" in record:
                manifest.tasks[record["id"]] = record
            else:
                manifest.dropped_lines += 1
        if manifest.header is None:
            raise ManifestError(
                f"{path}: no campaign header record — not a manifest, or"
                " corrupted beyond resume")
        return manifest


# ----- shard manifests --------------------------------------------------------


class ShardManifest:
    """One worker's JSONL journal for one (shard, lease) attempt.

    Every record lands via a full atomic rewrite, so a worker host lost
    at any instant leaves a complete, parseable journal of everything it
    finished.  The file is
    named for the shard, the lease epoch, and the lease nonce, so two
    workers that ever race on one shard (an expired lease stolen while
    its original owner limps on) write to *different* files and the
    merge, not the filesystem, arbitrates.
    """

    def __init__(self, path: PathLike, shard: str, fingerprint: str,
                 worker: str, epoch: int):
        self.path = Path(path)
        self.shard = shard
        self.header = {"event": "shard", "version": SHARD_MANIFEST_VERSION,
                       "shard": shard, "fingerprint": fingerprint,
                       "worker": worker, "epoch": epoch}
        self.tasks: Dict[str, Dict[str, Any]] = {}
        self.footer: Optional[Dict[str, Any]] = None

    @classmethod
    def create(cls, path: PathLike, shard: str, fingerprint: str,
               worker: str, epoch: int) -> "ShardManifest":
        manifest = cls(path, shard, fingerprint, worker, epoch)
        manifest.flush()
        return manifest

    def record_done(self, task_id: str, cell: str, attempts: int,
                    elapsed: float, result: Dict[str, Any]) -> None:
        self.tasks[task_id] = {"event": "task", "id": task_id, "cell": cell,
                               "status": "done", "attempts": attempts,
                               "elapsed": round(elapsed, 3),
                               "worker": self.header["worker"],
                               "epoch": self.header["epoch"],
                               "result": result}
        self.flush()

    def record_failed(self, task_id: str, cell: str, attempts: int,
                      elapsed: float, error: Dict[str, Any]) -> None:
        self.tasks[task_id] = {"event": "task", "id": task_id, "cell": cell,
                               "status": "failed", "attempts": attempts,
                               "elapsed": round(elapsed, 3),
                               "worker": self.header["worker"],
                               "epoch": self.header["epoch"],
                               "error": error}
        self.flush()

    def finalize(self, event: str = "shard-done") -> None:
        """Append the footer: ``shard-done`` when the shard ran to
        completion, ``shard-released`` when its lease was handed back
        early (an interrupt or ``--limit``).  A journal without a footer
        is an epoch whose owner died."""
        self.footer = {"event": event, "shard": self.shard,
                       "worker": self.header["worker"],
                       "epoch": self.header["epoch"],
                       "tasks": len(self.tasks)}
        self.flush()

    def flush(self) -> None:
        records = [self.header] + [self.tasks[tid]
                                   for tid in sorted(self.tasks)]
        if self.footer is not None:
            records.append(self.footer)
        atomic_append_jsonl(self.path, records)


def _json_lines(text: str) -> Tuple[List[Dict[str, Any]], int]:
    """The JSON objects on ``text``'s lines, in order, and how many
    other non-blank lines (torn, unparseable, not an object) it holds."""
    lines = [line for line in text.split("\n") if line.strip()]
    records = []
    for line in lines:
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records, len(lines) - len(records)


def read_journal(path: PathLike) -> List[Dict[str, Any]]:
    """Every JSON object on one journal's lines, in file order.

    Lenient by design — journals are read while workers are live and
    after hosts have died mid-write, so an unreadable file, unparseable
    lines and non-object lines are skipped, never fatal.
    """
    try:
        return _json_lines(Path(path).read_text(encoding="utf-8"))[0]
    except OSError:
        return []


def read_shard_records(results_dir: PathLike
                       ) -> Iterator[Dict[str, Any]]:
    """Yield every task record from every shard manifest in a directory
    (leniently, see :func:`read_journal`).  File order is unspecified;
    the merge is order-independent."""
    directory = Path(results_dir)
    if not directory.is_dir():
        return
    for path in sorted(directory.glob("*.jsonl")):
        for record in read_journal(path):
            if record.get("event") == "task" and "id" in record:
                yield record


def canonical_task_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Reduce a task record to its deterministic, merge-stable core.

    Volatile execution detail — wall-clock ``elapsed``, ``attempts``,
    which ``worker`` under which lease ``epoch``, and whether the
    shared trace cache happened to be warm — is stripped, because the
    merged campaign manifest must be bit-identical however the work was
    scheduled.  The full detail survives in the per-shard journals.
    """
    canon: Dict[str, Any] = {"event": "task", "id": record["id"],
                             "cell": record.get("cell", record["id"]),
                             "status": record.get("status", "failed")}
    if canon["status"] == "done":
        result = dict(record.get("result", {}))
        for key in VOLATILE_RESULT_KEYS:
            result.pop(key, None)
        telemetry = result.get("telemetry")
        if isinstance(telemetry, dict):
            telemetry = dict(telemetry)
            metrics = telemetry.get("metrics")
            if isinstance(metrics, dict):
                telemetry["metrics"] = {
                    kind: value for kind, value in metrics.items()
                    if kind not in VOLATILE_METRIC_KINDS}
            result["telemetry"] = telemetry
        canon["result"] = result
    else:
        error = record.get("error", {})
        canon["error"] = {"type": error.get("type", "unknown"),
                          "message": error.get("message", "")}
    return canon


class RecordMerge:
    """Incremental form of :func:`merge_task_records`.

    Folds task records one at a time (``records`` first) and keeps, per
    cell fingerprint, the winning full record (``records``, with
    attempts, elapsed and trace-cache state) next to its canonical form
    (``canonical``, what the merged manifest holds).
    """

    def __init__(self, records: Iterable[Dict[str, Any]] = ()) -> None:
        self.records: Dict[str, Dict[str, Any]] = {}
        self.canonical: Dict[str, Dict[str, Any]] = {}
        self._rank: Dict[str, Tuple] = {}
        for record in records:
            self.fold(record)

    def fold(self, record: Dict[str, Any]) -> bool:
        """Fold one record in; returns True when it became its cell's
        winner.

        Duplicates are ordered totally, never by arrival: ``done`` beats
        ``failed`` (a stolen shard's completion supersedes the original
        owner's crash), then the higher lease epoch wins
        (last-write-wins), then attempts, then the canonical
        serialisation as an arbitrary-but-stable tiebreak.
        """
        cell = record.get("cell", record.get("id"))
        if cell is None:
            return False
        canon = canonical_task_record(record)
        rank = (1 if record.get("status") == "done" else 0,
                int(record.get("epoch", 0)),
                int(record.get("attempts", 0)),
                json.dumps(canon, sort_keys=True))
        if cell in self._rank and rank <= self._rank[cell]:
            return False
        self._rank[cell] = rank
        self.records[cell] = record
        self.canonical[cell] = canon
        return True


def merge_task_records(records: Iterable[Dict[str, Any]]
                       ) -> Dict[str, Dict[str, Any]]:
    """Fold task records into ``{cell fingerprint: canonical record}``.

    Pure and order-independent: merging any permutation of any shard
    manifests (with duplicates) yields the same map, because each
    cell's winner is chosen by :meth:`RecordMerge.fold`'s total order,
    which never looks at arrival order.
    """
    return RecordMerge(records).canonical


def write_merged_manifest(path: PathLike, fingerprint: str,
                          spec: Dict[str, Any],
                          merged: Dict[str, Dict[str, Any]]) -> None:
    """Atomically write the byte-stable merged campaign manifest.

    Records are sorted by task id and serialised with sorted keys, so
    the file is a pure function of (fingerprint, spec, record set) —
    the property the chaos tests pin down with ``cmp``.  The output is
    loadable by :meth:`CampaignManifest.load`.
    """
    header = {"event": "campaign", "version": MANIFEST_VERSION,
              "fingerprint": fingerprint, "spec": spec}
    records = [header] + sorted(merged.values(),
                                key=lambda rec: rec["id"])
    text = "".join(json.dumps(record, sort_keys=True) + "\n"
                   for record in records)
    atomic_write_text(path, text)
