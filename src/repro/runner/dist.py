"""Campaign fabric: coordinator/worker protocol over a shared directory,
with leases, work stealing, and host-loss recovery.

Every campaign runs here.  A single-host ``repro campaign``
(:func:`run_campaign`) publishes the grid in one-task shards and runs
one :class:`DistWorker` in the calling process; ``--workers N`` forks N
local workers, and ``--coordinator``/``--join`` spread them across
hosts.  Losing a worker — or an entire host — mid-shard is a
recoverable, tested event:

* the **coordinator** (:class:`DistCoordinator`) shards the expanded
  grid into fixed-size work units published as immutable JSON files on
  a shared directory, then merges per-shard JSONL manifests into one
  resumable campaign manifest (fingerprint-validated, byte-stable merge
  order — see :class:`~repro.runner.manifest.RecordMerge`);
* **workers** (:class:`DistWorker`) hand every task of the unfinished
  shards to one :class:`~repro.runner.pool.ProcessTaskPool` run, which
  keeps ``max_workers`` tasks in flight (or runs them inline).  Just
  before a task launches, the worker claims its shard under a
  time-limited lease (`O_CREAT|O_EXCL`, so exactly one claim wins),
  renews it from a heartbeat thread, and appends every outcome to that
  lease's own shard manifest via the atomic write-temp-then-rename
  layer — concurrent workers never observe torn state;
* a lease that expires, or whose process has died in this PID
  namespace, is **stolen**: any live worker may reclaim it under the
  next lease epoch and re-run the shard's unfinished cells.  Requeue
  delays use full-jitter exponential backoff, and a shard whose owner
  died on ``max_shard_attempts`` leases is quarantined — its unfinished
  cells surface as explicit ``ShardQuarantined`` failures instead of
  hanging the campaign.  A lease handed back on ``^C``, SIGTERM or
  ``--limit`` marks its journal released and never counts;
* results are **at-least-once, exactly-once-merged**: a stolen shard
  whose original owner limps to completion produces duplicate records
  in *separate* files; the merge dedupes them last-write-wins keyed on
  each cell's content fingerprint.  Simulation is deterministic, so
  duplicates are bit-identical and the merged manifest is the same
  bytes for any worker count (the chaos tests ``cmp`` this).

The queue is a directory tree because the shared-filesystem case (NFS,
Lustre, a cloud file share) is the deployment the ROADMAP names first;
everything is plain JSON + atomic rename, so the same protocol works
over any transport that provides those two primitives.  Wall-clock
lease deadlines assume loosely NTP-synchronised hosts; the ttl should
dwarf plausible skew.

Layout under the campaign directory::

    campaign.json            coordinator-published spec + options (last)
    queue/shard-0000.json    immutable shard descriptors
    leases/shard-0000.lease  current claim: worker, host, pid, pid
                             namespace, nonce, epoch, deadline
    results/shard-0000.e1.<nonce>.jsonl   per-(shard, lease) manifests
    acks/shard-0000.json     terminal state: done or quarantined
    workers/<id>.json        per-worker telemetry (gauges + counters)
    manifest.jsonl           the merged campaign manifest
    progress.json            merged fleet telemetry
    trace-cache/             fleet-wide content-addressed stream cache
"""

from __future__ import annotations

import dataclasses
import functools
import json
import multiprocessing
import os
import random
import signal
import socket
import threading
import time
import uuid
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, List, Optional, Sequence, Set,
                    Tuple, Union)

from .atomic import atomic_write_json
from .campaign import (CampaignError, CampaignSpec, TaskSpec, execute_task,
                       task_fingerprint)
from .manifest import (RecordMerge, ShardManifest, read_journal,
                       read_shard_records, write_merged_manifest)
from .pool import PoolItem, ProcessTaskPool, full_jitter_delay
from ..telemetry import MetricsRegistry

PathLike = Union[str, Path]

DIST_VERSION = 1

#: chaos hook (tests/CI only): a worker SIGKILLs itself after claiming
#: the shard of the task whose id exactly equals this value, and before
#: the task runs — deterministic "host loss mid-shard" without timing
#: races.  By default the kill fires only while the shard is on its
#: first lease epoch, so the steal/requeue path then completes it; a
#: suffix ``#<N>`` (``#`` because task ids contain ``@``) keeps killing
#: through epoch N (drive past ``max_shard_attempts`` to exercise
#: quarantine).  Pool-child crashes are REPRO_CAMPAIGN_TEST_CRASH's job.
KILL_ENV = "REPRO_DIST_TEST_KILL"

#: journal footers: a journal with neither ended with its owner's death
FOOTER_EVENTS = ("shard-done", "shard-released")


def _read_json(path: Path) -> Optional[Dict[str, Any]]:
    """Read a JSON file leniently: missing/torn/foreign -> None."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


class CampaignLayout:
    """Path book-keeping for one campaign directory (see module doc)."""

    def __init__(self, root: PathLike):
        self.root = Path(root)
        self.campaign_file = self.root / "campaign.json"
        self.queue_dir = self.root / "queue"
        self.lease_dir = self.root / "leases"
        self.results_dir = self.root / "results"
        self.acks_dir = self.root / "acks"
        self.workers_dir = self.root / "workers"
        self.manifest_path = self.root / "manifest.jsonl"
        self.progress_path = self.root / "progress.json"
        self.default_trace_cache = self.root / "trace-cache"

    def ensure(self) -> None:
        for directory in (self.root, self.queue_dir, self.lease_dir,
                          self.results_dir, self.acks_dir, self.workers_dir):
            directory.mkdir(parents=True, exist_ok=True)

    def shard_path(self, shard_id: str) -> Path:
        return self.queue_dir / f"{shard_id}.json"

    def lease_path(self, shard_id: str) -> Path:
        return self.lease_dir / f"{shard_id}.lease"

    def ack_path(self, shard_id: str) -> Path:
        return self.acks_dir / f"{shard_id}.json"

    def worker_path(self, worker_id: str) -> Path:
        return self.workers_dir / f"{worker_id}.json"

    def result_path(self, shard_id: str, epoch: int, nonce: str) -> Path:
        return self.results_dir / f"{shard_id}.e{epoch}.{nonce}.jsonl"


def shard_ids(count: int) -> List[str]:
    return [f"shard-{index:04d}" for index in range(count)]


def shard_tasks(spec: CampaignSpec, shard_size: int) -> List[List[TaskSpec]]:
    """Chunk the expanded grid into shards, in deterministic order."""
    size = max(1, shard_size)
    tasks = spec.tasks()
    return [tasks[start:start + size] for start in range(0, len(tasks), size)]


# ----- leases -----------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _pid_namespace() -> Optional[str]:
    """This kernel boot and PID namespace (None where ``/proc`` cannot
    tell): a pid names the same process only to a reader in the same
    namespace of the same boot."""
    try:
        boot = Path("/proc/sys/kernel/random/boot_id").read_text().strip()
        return f"{boot}/{os.stat('/proc/self/ns/pid').st_ino}"
    except OSError:
        return None


def try_claim_lease(path: Path, shard: str, worker: str, nonce: str,
                    epoch: int, ttl: float) -> bool:
    """Claim a shard by creating its lease file with ``O_EXCL``.

    Exactly one concurrent claimant wins the create; everyone else gets
    ``FileExistsError`` and moves on.  The payload is written and
    fsynced through the held descriptor, so a reader never sees an
    empty lease from a claimant that died mid-write (a torn payload
    parses as None and is treated as expired).  It records the
    claimant's host, pid and PID namespace, so a peer in the same
    namespace can tell a dead owner without waiting out the ttl.
    """
    payload = {"shard": shard, "worker": worker, "nonce": nonce,
               "epoch": epoch, "deadline": time.time() + ttl,
               "host": socket.gethostname(), "pid": os.getpid(),
               "pid_namespace": _pid_namespace()}
    data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
    except OSError:  # FileExistsError: another claimant won
        return False
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    return True


def read_lease(path: Path) -> Optional[Dict[str, Any]]:
    return _read_json(path)


def lease_expired(lease: Optional[Dict[str, Any]]) -> bool:
    """A missing, torn, or past-deadline lease is claimable, and so is
    one whose process no longer exists (a killed single-host run
    resumes at once instead of waiting out the ttl).  The pid is only
    trusted from a lease written on this host in this PID namespace:
    containers and hosts can share a hostname, not a namespace."""
    if lease is None:
        return True
    try:
        deadline = float(lease.get("deadline", 0.0))
    except (TypeError, ValueError):
        return True
    if deadline <= time.time():
        return True
    pid, namespace = lease.get("pid"), _pid_namespace()
    if namespace is None or lease.get("pid_namespace") != namespace \
            or lease.get("host") != socket.gethostname() \
            or not isinstance(pid, int):
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:
        pass  # it exists, under another user
    return False


def renew_lease(path: Path, nonce: str, ttl: float) -> bool:
    """Extend our own lease; returns False when the lease was lost.

    The nonce check makes renewal a (non-atomic) compare-and-swap: if a
    stealer replaced the lease between our read and our write, we might
    clobber it — the protocol tolerates that because the loser's
    results land in its own file and the merge dedupes.  What matters
    is that a worker that *has* lost its lease finds out here and stops
    claiming fresh work against it.
    """
    current = read_lease(path)
    if current is None or current.get("nonce") != nonce:
        return False
    current["deadline"] = time.time() + ttl
    try:
        atomic_write_json(path, current)
    except OSError:
        return False
    return True


def release_lease(path: Path, nonce: str) -> None:
    """Drop our lease (only if it is still ours)."""
    current = read_lease(path)
    if current is not None and current.get("nonce") == nonce:
        try:
            path.unlink()
        except OSError:
            pass


class _LeaseKeeper(threading.Thread):
    """Heartbeat thread: renews one lease until stopped or lost."""

    def __init__(self, path: Path, nonce: str, ttl: float,
                 interval: Optional[float] = None):
        super().__init__(daemon=True, name=f"lease-{path.stem}")
        self.path = path
        self.nonce = nonce
        self.ttl = ttl
        self.interval = interval if interval is not None else ttl / 3.0
        self.lost = threading.Event()
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self.interval):
            if not renew_lease(self.path, self.nonce, self.ttl):
                self.lost.set()
                return

    def stop(self) -> None:
        self._stop_event.set()


# ----- the worker -------------------------------------------------------------


@dataclass
class WorkerResult:
    """What one :meth:`DistWorker.run` invocation accomplished."""

    worker: str
    shards_done: int = 0
    shards_stolen: int = 0
    shards_requeued: int = 0
    shards_quarantined: int = 0
    shards_abandoned: int = 0   # lease lost mid-shard; a peer took over
    tasks_done: int = 0
    tasks_failed: int = 0


@dataclass
class _HeldShard:
    """A shard this worker holds the lease on."""

    shard_id: str
    epoch: int
    nonce: str
    manifest: ShardManifest
    keeper: "_LeaseKeeper"
    left: int               # tasks neither finished nor skipped yet
    done_cells: Set[str]    # journaled done under an earlier lease
    closed: bool = False


class DistWorker:
    """Claims shards under leases and executes them until the campaign
    is complete (every shard acked done or quarantined).

    Safe to run any number of these, on any number of hosts sharing the
    campaign directory, starting at any time — including *restarting*
    after a crash, which is exactly the ``--resume`` story: a restarted
    worker simply claims whatever is still unclaimed or expired.

    ``limit`` > 0 stops claiming after that many finished tasks;
    ``on_record(record)`` sees each task record as soon as it is
    journaled (a single-host run folds it into ``manifest.jsonl``).
    """

    def __init__(self, root: PathLike, worker_id: Optional[str] = None,
                 poll_interval: Optional[float] = None,
                 join_timeout: float = 30.0, limit: int = 0,
                 on_record: Optional[Callable[[Dict[str, Any]],
                                              None]] = None):
        self.layout = CampaignLayout(root)
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.join_timeout = join_timeout
        self.limit = max(0, limit)
        self.on_record = on_record
        self._poll_override = poll_interval
        self.result = WorkerResult(worker=self.worker_id)
        self._finished = 0

    # ----- campaign discovery ---------------------------------------------

    def _load_campaign(self) -> Dict[str, Any]:
        deadline = time.monotonic() + self.join_timeout
        while True:
            payload = _read_json(self.layout.campaign_file)
            if payload is not None:
                if payload.get("version") != DIST_VERSION:
                    raise CampaignError(
                        f"{self.layout.campaign_file}: unsupported"
                        f" distributed-campaign version"
                        f" {payload.get('version')!r}")
                return payload
            if time.monotonic() >= deadline:
                raise CampaignError(
                    f"no campaign published at {self.layout.campaign_file}"
                    f" after {self.join_timeout:.0f}s — start the"
                    " coordinator first (campaign --coordinator/--workers)")
            time.sleep(0.1)

    # ----- main loop ------------------------------------------------------

    def run(self) -> WorkerResult:
        """Work until the campaign is complete or ``limit`` is reached.
        SIGTERM (a pre-empted job) interrupts it like ``^C``, so held
        leases are handed back; only the main thread receives signals."""
        if threading.current_thread() is not threading.main_thread():
            return self._run()
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            return self._run()
        finally:
            signal.signal(signal.SIGTERM, previous or signal.SIG_DFL)

    def _run(self) -> WorkerResult:
        campaign = self._load_campaign()
        spec = CampaignSpec.from_dict(campaign["spec"])
        fingerprint = campaign["fingerprint"]
        if fingerprint != spec.fingerprint():
            raise CampaignError(
                f"{self.layout.campaign_file}: fingerprint does not match"
                " its own spec — refusing to execute a torn campaign")
        options = campaign.get("options", {})
        self.lease_ttl = float(options.get("lease_ttl", 15.0))
        self.max_shard_attempts = int(options.get("max_shard_attempts", 3))
        self.executor = options.get("executor", "process")
        self.max_workers = int(options.get("max_workers", 2))
        self.task_timeout = float(options.get("task_timeout", 600.0))
        self.retries = int(options.get("retries", 1))
        self.backoff = float(options.get("backoff", 0.5))
        self.poll_interval = self._poll_override if self._poll_override \
            is not None else float(options.get("poll_interval", 0.2))
        trace_cache_dir = options.get("trace_cache_dir")
        if options.get("trace_cache", True) and trace_cache_dir is None:
            trace_cache_dir = str(self.layout.default_trace_cache)
        kill_target, _, upto = os.environ.get(KILL_ENV, "").partition("#")
        self._kill = (kill_target, int(upto) if upto else 1)

        shards = shard_tasks(spec, int(campaign.get("shard_size", 1)))
        if len(shards) != int(campaign.get("shards", len(shards))):
            raise CampaignError(
                f"{self.layout.campaign_file}: shard plan mismatch"
                f" ({campaign.get('shards')} published,"
                f" {len(shards)} derived from the spec)")
        if trace_cache_dir:
            shards = [[dataclasses.replace(task,
                                           trace_cache_dir=trace_cache_dir)
                       for task in tasks] for tasks in shards]
        plan = dict(zip(shard_ids(len(shards)), shards))

        self._publish_status()
        try:
            while not (self.limit and self._finished >= self.limit):
                remaining = {sid: tasks for sid, tasks in plan.items()
                             if _read_json(self.layout.ack_path(sid)) is None}
                if not remaining:
                    break
                if not self._run_pass(remaining, fingerprint):
                    # peers hold every runnable lease; jitter the poll so
                    # a worker fleet does not scan the directory in
                    # lockstep
                    time.sleep(random.uniform(0.5, 1.0)
                               * self.poll_interval)
            return self.result
        finally:
            self._publish_status()

    # ----- one pass over the unfinished shards ----------------------------

    def _run_pass(self, remaining: Dict[str, Sequence[TaskSpec]],
                  fingerprint: str) -> bool:
        """Hand every task of the claimable shards to one pool run.

        Shards are claimed lazily, just before their first task
        launches, so the pool keeps ``max_workers`` shards in flight
        without hoarding leases.  Returns False when nothing was claimed
        or quarantined.
        """
        items: List[PoolItem] = []
        shard_of: Dict[str, str] = {}
        now = time.monotonic()
        for sid, tasks in remaining.items():
            lease = read_lease(self.layout.lease_path(sid))
            if not lease_expired(lease):
                continue
            # full-jitter backoff before re-running a shard whose owner
            # died, so a transient cause (an OOMing host, a flaky share)
            # can clear instead of being hammered in lockstep with peers
            died = self._history(sid, lease)[1]
            not_before = now + full_jitter_delay(self.backoff, len(died)) \
                if died else 0.0
            for task in tasks:
                shard_of[task.task_id] = sid
                items.append(PoolItem(key=task.task_id, payload=task,
                                      not_before=not_before))
        quarantined = self.result.shards_quarantined
        held: Dict[str, Optional[_HeldShard]] = {}

        def claim(item: PoolItem) -> bool:
            sid = shard_of[item.key]
            if sid not in held:
                held[sid] = self._claim(sid, len(remaining[sid]),
                                        fingerprint)
            shard = held[sid]
            if shard is None or shard.keeper.lost.is_set():
                return False
            if task_fingerprint(item.payload) in shard.done_cells:
                # --resume never re-runs a journaled cell
                self._settle(shard, None)
                return False
            if item.key == self._kill[0] and shard.epoch <= self._kill[1]:
                os.kill(os.getpid(), signal.SIGKILL)
            return True

        def on_done(item: PoolItem, elapsed: float, payload: Any) -> None:
            shard = held[shard_of[item.key]]
            shard.manifest.record_done(item.key, task_fingerprint(
                item.payload), item.attempt, elapsed, payload)
            self.result.tasks_done += 1
            self._settle(shard, shard.manifest.tasks[item.key])

        def on_failed(item: PoolItem, elapsed: float,
                      error: Dict[str, Any]) -> None:
            shard = held[shard_of[item.key]]
            shard.manifest.record_failed(item.key, task_fingerprint(
                item.payload), item.attempt, elapsed, error)
            self.result.tasks_failed += 1
            self._settle(shard, shard.manifest.tasks[item.key])

        pool = ProcessTaskPool(execute_task, max_workers=self.max_workers,
                               task_timeout=self.task_timeout,
                               retries=self.retries, backoff=self.backoff,
                               executor=self.executor)
        try:
            pool.run(items, on_done, on_failed, claim=claim,
                     limit=self.limit - self._finished if self.limit else 0)
        finally:
            # interrupted, or stopped by the limit: hand back what is
            # still held so a peer or a resume claims it at once
            for shard in held.values():
                if shard is not None and not shard.closed:
                    self._close(shard, completed=False)
        return any(held.values()) \
            or self.result.shards_quarantined > quarantined

    # ----- one shard ------------------------------------------------------

    def _history(self, shard_id: str, lease: Optional[Dict[str, Any]]
                 ) -> Tuple[Set[int], Set[int], Set[str]]:
        """The shard's lease epochs so far (``lease``'s included), the
        epochs whose owner died (a journal without a footer; a lease
        that never wrote its journal ran nothing), and the cells
        journaled done."""
        epochs: Set[int] = set()
        died: Set[int] = set()
        done: Set[str] = set()
        for path in self.layout.results_dir.glob(f"{shard_id}.e*.jsonl"):
            remainder = path.name[len(shard_id) + 2:]  # past ".e"
            try:
                epoch = int(remainder.split(".", 1)[0])
            except ValueError:
                continue
            epochs.add(epoch)
            records = read_journal(path)
            if not any(rec.get("event") in FOOTER_EVENTS for rec in records):
                died.add(epoch)
            done.update(rec.get("cell") for rec in records
                        if rec.get("event") == "task"
                        and rec.get("status") == "done")
        epoch = lease.get("epoch") if lease is not None else None
        if isinstance(epoch, int) and epoch:
            epochs.add(epoch)
        return epochs, died, done

    def _claim(self, shard_id: str, size: int,
               fingerprint: str) -> Optional[_HeldShard]:
        """Claim one shard's lease now, or quarantine it; None when the
        shard is not ours to run."""
        # re-read the ack here, not just in the pass's snapshot: a peer
        # may have completed this shard (and released its lease) since,
        # and a released lease must read as "done", never "claimable"
        if _read_json(self.layout.ack_path(shard_id)) is not None:
            return None
        lease_path = self.layout.lease_path(shard_id)
        lease = read_lease(lease_path)
        if not lease_expired(lease):
            return None
        epochs, died, done_cells = self._history(shard_id, lease)
        if len(died) >= self.max_shard_attempts:
            # poison shard: its owner died on every allowed lease.  The
            # ack is written atomically; racing quarantiners write the
            # same deterministic payload, so last-write-wins is harmless.
            atomic_write_json(self.layout.ack_path(shard_id), {
                "shard": shard_id, "status": "quarantined",
                "attempts": len(died), "worker": self.worker_id})
            if lease is not None:
                release_lease(lease_path, lease.get("nonce", ""))
            self.result.shards_quarantined += 1
            self._publish_status()
            return None
        if lease is not None:
            # its owner is presumed dead.  Unlink, then contend on the
            # O_EXCL create like everyone else.  The unlink/create window
            # can double-run the shard in a worst case; the merge
            # dedupes, so safety never depends on it.
            try:
                lease_path.unlink()
            except OSError:
                pass
        epoch = max(epochs, default=0) + 1
        nonce = uuid.uuid4().hex[:12]
        if not try_claim_lease(lease_path, shard_id, self.worker_id, nonce,
                               epoch, self.lease_ttl):
            return None
        if lease is not None:
            self.result.shards_stolen += 1
        if epochs:
            self.result.shards_requeued += 1
        manifest = ShardManifest.create(
            self.layout.result_path(shard_id, epoch, nonce),
            shard=shard_id, fingerprint=fingerprint,
            worker=self.worker_id, epoch=epoch)
        keeper = _LeaseKeeper(lease_path, nonce, self.lease_ttl)
        keeper.start()
        return _HeldShard(shard_id, epoch, nonce, manifest, keeper,
                          left=size, done_cells=done_cells)

    def _settle(self, shard: _HeldShard,
                record: Optional[Dict[str, Any]]) -> None:
        """One task of a held shard finished (``record``) or was skipped;
        the last one closes the shard."""
        shard.left -= 1
        if record is not None:
            self._finished += 1
            if self.on_record is not None:
                self.on_record(record)
        if not shard.left:
            self._close(shard, completed=True)

    def _close(self, shard: _HeldShard, completed: bool) -> None:
        """Stop heartbeating ``shard`` and settle its lease."""
        shard.closed = True
        shard.keeper.stop()
        shard.keeper.join()
        lease_path = self.layout.lease_path(shard.shard_id)
        if shard.keeper.lost.is_set():
            # lease lost mid-shard (we stalled past the ttl and were
            # stolen): abandon quietly.  Our journal stays on disk; cells
            # we did finish merge as duplicates.
            self.result.shards_abandoned += 1
        elif completed:
            shard.manifest.finalize("shard-done")
            atomic_write_json(self.layout.ack_path(shard.shard_id), {
                "shard": shard.shard_id, "status": "done",
                "worker": self.worker_id, "nonce": shard.nonce,
                "epoch": shard.epoch})
            release_lease(lease_path, shard.nonce)
            self.result.shards_done += 1
        else:
            # handed back early (an interrupt or the limit): the footer
            # keeps this epoch from counting toward max_shard_attempts
            shard.manifest.finalize("shard-released")
            release_lease(lease_path, shard.nonce)
        self._publish_status()

    # ----- telemetry ------------------------------------------------------

    def _publish_status(self) -> None:
        """Atomically publish this worker's cumulative fabric metrics.

        One file per worker, rewritten whole: the coordinator merges the
        set with :meth:`MetricsRegistry.merge_all` (distinct workers
        sum; per-worker gauges carry the worker id in the name, so the
        merge never conflates two hosts).
        """
        res = self.result
        registry = MetricsRegistry()
        registry.inc("dist.shards.completed", res.shards_done)
        registry.inc("dist.shards.stolen", res.shards_stolen)
        registry.inc("dist.shards.requeued", res.shards_requeued)
        registry.inc("dist.shards.quarantined", res.shards_quarantined)
        registry.inc("dist.shards.abandoned", res.shards_abandoned)
        registry.inc("dist.tasks.done", res.tasks_done)
        registry.inc("dist.tasks.failed", res.tasks_failed)
        prefix = f"dist.worker.{self.worker_id}"
        registry.set_gauge(f"{prefix}.shards_done", res.shards_done)
        registry.set_gauge(f"{prefix}.tasks_done", res.tasks_done)
        registry.set_gauge(f"{prefix}.steals", res.shards_stolen)
        registry.set_gauge(f"{prefix}.requeues", res.shards_requeued)
        try:
            atomic_write_json(self.layout.worker_path(self.worker_id), {
                "worker": self.worker_id, "updated": time.time(),
                "metrics": registry.to_dict()})
        except OSError:
            pass  # status is advisory; never let it sink the worker


# ----- the coordinator --------------------------------------------------------


@dataclass
class DistResult:
    """Merged outcome of a campaign (possibly mid-flight).

    ``done`` and ``failed`` count every cell in the merged manifest;
    ``skipped`` counts the cells recorded before this run.  ``tasks``
    maps each task id to its cell's winning full record (attempts,
    elapsed, trace-cache state included).
    """

    total_tasks: int
    total_shards: int
    done: int = 0
    failed: int = 0
    skipped: int = 0
    shards_done: int = 0
    shards_quarantined: int = 0
    manifest_path: Optional[Path] = None
    tasks: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, Any] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.shards_done + self.shards_quarantined \
            == self.total_shards

    @property
    def remaining(self) -> int:
        return self.total_tasks - len(self.tasks)


class DistCoordinator:
    """Publishes the shard queue and merges shard manifests.

    Stateless across restarts by construction: everything lives in the
    campaign directory, so killing the coordinator mid-campaign loses
    nothing — re-running ``publish()`` (with ``resume=True``) validates
    the fingerprint and shard size, re-publishes any missing shard
    descriptors, and ``wait()``/``merge()`` pick up from the files on
    disk.  ``retry_failed`` (with ``resume``) un-acks every shard
    holding a task-failed cell so that cell runs again.  ``recorded``
    holds the records journaled before this run (the result's
    ``skipped`` cells).
    """

    def __init__(self, spec: CampaignSpec, root: PathLike,
                 shard_size: int = 1,
                 lease_ttl: float = 15.0,
                 max_shard_attempts: int = 3,
                 executor: str = "process",
                 max_workers: int = 2,
                 task_timeout: float = 600.0,
                 retries: int = 1,
                 backoff: float = 0.5,
                 trace_cache: bool = True,
                 trace_cache_dir: Optional[PathLike] = None,
                 resume: bool = False,
                 retry_failed: bool = False,
                 poll_interval: float = 0.2):
        if executor not in ("process", "inline"):
            raise CampaignError("executor must be 'process' or 'inline'")
        self.spec = spec
        self.layout = CampaignLayout(root)
        self.shard_size = max(1, shard_size)
        self.options = {
            "lease_ttl": lease_ttl,
            "max_shard_attempts": max(1, max_shard_attempts),
            "executor": executor,
            "max_workers": max_workers,
            "task_timeout": task_timeout,
            "retries": retries,
            "backoff": backoff,
            "trace_cache": trace_cache,
            "trace_cache_dir": (str(trace_cache_dir)
                                if trace_cache_dir is not None else None),
            "poll_interval": poll_interval,
        }
        self.resume = resume
        self.retry_failed = retry_failed
        self.recorded = RecordMerge()
        self.poll_interval = poll_interval
        self.shards = shard_tasks(spec, self.shard_size)
        self.shard_ids = shard_ids(len(self.shards))

    # ----- publish --------------------------------------------------------

    def publish(self) -> None:
        """Write the shard queue, then the campaign file (in that order,
        so a worker that sees ``campaign.json`` sees the whole queue)."""
        fingerprint = self.spec.fingerprint()
        existing = _read_json(self.layout.campaign_file)
        if existing is None and self.layout.manifest_path.exists():
            raise CampaignError(
                f"{self.layout.manifest_path} has no campaign.json beside"
                " it: an older runner wrote it, and resuming would"
                " overwrite its journal — choose a fresh --dir")
        self.layout.ensure()
        if existing is not None:
            if not self.resume:
                raise CampaignError(
                    f"{self.layout.campaign_file} already exists; pass"
                    " resume=True (CLI: --resume) to continue it, or"
                    " choose a fresh --dir")
            if existing.get("fingerprint") != fingerprint:
                raise CampaignError(
                    f"{self.layout.campaign_file} was published for a"
                    f" different campaign grid (fingerprint"
                    f" {existing.get('fingerprint')} != {fingerprint});"
                    " refusing to mix results")
            if existing.get("shard_size") != self.shard_size:
                raise CampaignError(
                    f"{self.layout.campaign_file} was published with"
                    f" shard size {existing.get('shard_size')}; resume it"
                    f" with that size, not {self.shard_size}")
            self.recorded = self._prepare_resume()
        for index, (sid, tasks) in enumerate(zip(self.shard_ids,
                                                 self.shards)):
            path = self.layout.shard_path(sid)
            if path.exists():
                continue  # descriptors are immutable; never rewrite
            atomic_write_json(path, {
                "shard": sid, "index": index, "fingerprint": fingerprint,
                "tasks": [task.task_id for task in tasks]})
        atomic_write_json(self.layout.campaign_file, {
            "version": DIST_VERSION, "fingerprint": fingerprint,
            "spec": self.spec.to_dict(), "shards": len(self.shards),
            "shard_size": self.shard_size, "options": self.options})

    def _prepare_resume(self) -> RecordMerge:
        """The records journaled before this run.  With ``retry_failed``,
        un-ack each done shard holding a failed cell (quarantined shards
        stay quarantined) and leave those cells out: they run again."""
        acks = self._ack_states()
        records = self.collect(acks).records
        retry: Set[str] = set()
        for sid, tasks in zip(self.shard_ids, self.shards):
            failed = {cell for cell in map(task_fingerprint, tasks)
                      if records.get(cell, {}).get("status") == "failed"}
            if self.retry_failed and failed \
                    and (acks[sid] or {}).get("status") == "done":
                self.layout.ack_path(sid).unlink()
                retry |= failed
        return RecordMerge(record for cell, record in records.items()
                           if cell not in retry)

    # ----- merge ----------------------------------------------------------

    def _ack_states(self) -> Dict[str, Optional[Dict[str, Any]]]:
        return {sid: _read_json(self.layout.ack_path(sid))
                for sid in self.shard_ids}

    def collect(self, acks: Dict[str, Optional[Dict[str, Any]]]
                ) -> RecordMerge:
        """Fold every shard manifest into a :class:`RecordMerge`.

        Each cell of a quarantined shard (per ``acks``) without a real
        record becomes an explicit, deterministic failure (epoch 0, so a
        genuine record from a partially-successful lease always
        outranks it).
        """
        merge = RecordMerge(read_shard_records(self.layout.results_dir))
        attempts = self.options["max_shard_attempts"]
        for sid, tasks in zip(self.shard_ids, self.shards):
            ack = acks[sid]
            if ack is None or ack.get("status") != "quarantined":
                continue
            for task in tasks:
                merge.fold({
                    "event": "task", "id": task.task_id,
                    "cell": task_fingerprint(task), "status": "failed",
                    "epoch": 0, "attempts": 0,
                    "error": {"type": "ShardQuarantined",
                              "message": f"{sid} quarantined after"
                                         f" {attempts} failed lease"
                                         " attempts"}})
        return merge

    def write_manifest(self, merge: RecordMerge) -> None:
        """Write ``merge`` as the campaign's ``manifest.jsonl``."""
        write_merged_manifest(self.layout.manifest_path,
                              self.spec.fingerprint(), self.spec.to_dict(),
                              merge.canonical)

    def merge(self) -> DistResult:
        """Merge every shard manifest into the campaign manifest.

        Byte-stable: the output is a pure function of the record set
        (plus quarantine acks), independent of worker count, steal
        history, or merge timing — see ``manifest.RecordMerge``.
        """
        acks = self._ack_states()
        merge = self.collect(acks)
        self.write_manifest(merge)

        cells = Counter(rec["status"] for rec in merge.records.values())
        shards = Counter(ack.get("status") for ack in acks.values() if ack)
        result = DistResult(
            total_tasks=sum(len(tasks) for tasks in self.shards),
            total_shards=len(self.shards), done=cells["done"],
            failed=cells["failed"], skipped=len(self.recorded.records),
            shards_done=shards["done"],
            shards_quarantined=shards["quarantined"],
            manifest_path=self.layout.manifest_path,
            tasks={rec["id"]: rec for rec in merge.records.values()})

        fleet = MetricsRegistry.merge_all(
            status["metrics"]
            for status in (_read_json(path)
                           for path in sorted(
                               self.layout.workers_dir.glob("*.json")))
            if status is not None and "metrics" in status)
        result.counters = fleet.counter_values()
        result.gauges = fleet.gauge_values()
        try:
            atomic_write_json(self.layout.progress_path, {
                "shards_done": result.shards_done,
                "shards_quarantined": result.shards_quarantined,
                "total_shards": result.total_shards,
                "tasks_done": result.done, "tasks_failed": result.failed,
                "counters": result.counters, "gauges": result.gauges})
        except OSError:
            pass
        return result

    # ----- wait -----------------------------------------------------------

    def wait(self, timeout: Optional[float] = None,
             on_progress: Optional[Callable[[DistResult], None]] = None,
             merge_interval: float = 2.0) -> DistResult:
        """Block until every shard is terminal, merging as results land.

        Returns the final merged result; on ``timeout`` (seconds),
        returns the current (possibly incomplete) merge instead of
        raising, so a supervisor can report progress and retry.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        last_merge = 0.0
        while True:
            acks = self._ack_states()
            terminal = sum(1 for ack in acks.values() if ack is not None)
            if terminal == len(self.shard_ids):
                return self.merge()
            now = time.monotonic()
            if now - last_merge >= merge_interval:
                last_merge = now
                result = self.merge()
                if on_progress is not None:
                    on_progress(result)
            if deadline is not None and now >= deadline:
                return self.merge()
            time.sleep(self.poll_interval)


# ----- one-call driver --------------------------------------------------------


def _worker_entry(root: str, worker_id: str) -> None:
    """Subprocess entry point for locally spawned workers."""
    try:
        DistWorker(root, worker_id=worker_id).run()
    except KeyboardInterrupt:  # pragma: no cover - shutdown path
        pass


def run_distributed(spec: CampaignSpec, root: PathLike,
                    workers: int = 1,
                    timeout: Optional[float] = None,
                    on_progress: Optional[Callable[[DistResult],
                                                   None]] = None,
                    **coordinator_kwargs) -> DistResult:
    """Publish a campaign and drive it with ``workers`` local workers.

    ``workers=0`` publishes and waits only — the fleet joins from other
    hosts/terminals via ``campaign --join``.  On ``KeyboardInterrupt``
    the local workers are terminated (they finalize their shard
    manifests and release their leases on SIGTERM), a final merge is
    written, and the interrupt propagates for the CLI's exit-130
    contract.
    """
    coordinator = DistCoordinator(spec, root, **coordinator_kwargs)
    coordinator.publish()
    if workers <= 0:
        return coordinator.wait(timeout=timeout, on_progress=on_progress)
    if "fork" in multiprocessing.get_all_start_methods():
        ctx = multiprocessing.get_context("fork")
    else:  # pragma: no cover - non-POSIX fallback
        ctx = multiprocessing.get_context("spawn")
    procs = []
    for index in range(workers):
        worker_id = f"{socket.gethostname()}-w{index}"
        # not daemonic: workers parent their own task-pool children
        proc = ctx.Process(target=_worker_entry,
                           args=(str(root), worker_id))
        proc.start()
        procs.append(proc)
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        while True:
            slice_timeout = 2.0
            if deadline is not None:
                slice_timeout = min(slice_timeout,
                                    max(deadline - time.monotonic(), 0.0))
            result = coordinator.wait(timeout=slice_timeout,
                                      on_progress=on_progress)
            if result.complete:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            if not any(proc.is_alive() for proc in procs):
                # the entire local fleet died (chaos kill, OOM sweep)
                # with shards outstanding: nobody is left to steal
                # them, so waiting out lease ttls would hang forever.
                # Everything journaled so far is merged and on disk —
                # this is the --resume entry point, not data loss.
                raise CampaignError(
                    "all local workers exited with"
                    f" {result.total_shards - result.shards_done - result.shards_quarantined}"
                    " shard(s) outstanding; re-run with --resume to"
                    " continue from the journaled results")
    except BaseException:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join(timeout=10)
        coordinator.merge()
        raise
    for proc in procs:
        proc.join(timeout=30)
        if proc.is_alive():  # pragma: no cover - defensive
            proc.terminate()
            proc.join(timeout=10)
    return result


def run_campaign(spec: CampaignSpec, root: PathLike, limit: int = 0,
                 **coordinator_kwargs) -> DistResult:
    """Run a campaign on this host: the fabric with one worker.

    Publishes the grid (in one-task shards unless ``shard_size`` says
    otherwise) and runs one :class:`DistWorker` in the calling process,
    which keeps ``max_workers`` tasks in flight (``executor="inline"``
    runs them here, one at a time).  ``manifest.jsonl`` is rewritten
    after every finished task, so a progress poller sees it grow;
    ``limit`` > 0 stops after that many finished tasks.
    ``KeyboardInterrupt`` (SIGTERM included) and ``SystemExit``
    propagate with every journal flushed and every held lease released;
    ``--resume`` then continues where the run stopped.
    """
    coordinator = DistCoordinator(spec, root, **coordinator_kwargs)
    coordinator.publish()
    merge = RecordMerge(coordinator.recorded.records.values())

    def on_record(record: Dict[str, Any]) -> None:
        if merge.fold(record):
            coordinator.write_manifest(merge)

    DistWorker(root, limit=limit, on_record=on_record).run()
    return coordinator.merge()


__all__ = [
    "CampaignLayout", "DIST_VERSION", "DistCoordinator", "DistResult",
    "DistWorker", "KILL_ENV", "WorkerResult", "lease_expired",
    "read_lease", "release_lease", "renew_lease", "run_campaign",
    "run_distributed", "shard_ids", "shard_tasks", "try_claim_lease",
]
