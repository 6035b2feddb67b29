"""Issue-stream sources: one architecture for live, recorded, and
synthetic streams.

The paper's entire method (sections 4.1–4.3) is defined over the *issue
stream* — the per-cycle sequence of :class:`~repro.cpu.trace.IssueGroup`
objects a machine publishes.  Historically every consumer (policy
evaluators, statistics collectors, fault hooks, telemetry samplers)
subscribed directly to a live :class:`~repro.cpu.simulator.Simulator`,
which forced each new evaluator *set* to pay a full simulation pass.
This module makes the stream a first-class seam:

* an :class:`IssueSource` is anything that can push an issue stream at
  a set of consumers — a live simulation (:class:`LiveSource`), a
  recorded stream (:class:`ReplaySource` for an exported trace file,
  :class:`PackedSource` for a trace-cache entry, :class:`MemorySource`
  in process), or a statistics-calibrated generator
  (:class:`SyntheticSource`);
* a *consumer* is any ``(IssueGroup) -> None`` callable — exactly the
  existing listener contract — optionally carrying a ``finalize()``
  method for deferred accounting (wrong-path-excluding evaluators);
* :func:`drive` runs one source into many consumers and finalizes them.

Simulation is far more expensive than evaluation, so the winning shape
for experiments is *simulate once, replay many*: :func:`capture` runs a
source once into an in-process :class:`MemorySource` (with final
wrong-path flags, since the collector holds references to the MicroOps
the flush retroactively marks), and :func:`record` additionally
exports it as a version-2 gzip trace file (``repro record`` /
``repro replay``).

The content-addressed trace cache keeps each (program, config) stream
as one pack file, ``<key>.pack`` (:func:`cache_entry_path`), holding
the packed columns and the recording run's summary.  Every caller
fetches through :func:`cached_or_record`, which looks the entry up
(:func:`cached_source`) and, on a miss, records it once under
:class:`TraceCacheLock` (:func:`record_cached`);
:func:`prune_trace_cache` evicts entries LRU-first.

Bit-identity is the load-bearing invariant: any consumer driven by a
captured or replayed stream must accumulate exactly the totals it would
have accumulated as a live listener.  The round-trip tests in
``tests/streams`` enforce this for every steering scheme, including
deferred (``include_speculative=False``) accounting.
"""

from __future__ import annotations

import json
import os
import socket
import time
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator,
                    List, Optional, Sequence, Tuple, Union)

from .cpu.config import MachineConfig
from .cpu.simulator import Simulator
from .cpu.trace import IssueGroup, SimulationResult, TraceCollector
from .cpu.tracefile import (header_result, load_trace, read_trace_header,
                            write_trace)
from .isa.instructions import FUClass
from .isa.program import Program

if TYPE_CHECKING:
    from .batch.columns import PackedTrace

PathLike = Union[str, Path]

#: A stream consumer: the classic listener contract.  Consumers may
#: additionally define ``finalize()`` (drained by :func:`drive`).
IssueConsumer = Callable[[IssueGroup], None]

SOURCE_KINDS = ("live", "replay", "memory", "synthetic")


class IssueSource:
    """Base class for issue-stream producers.

    Subclasses either yield groups from :meth:`groups` (pull model —
    replay, memory, synthetic) and inherit the generic :meth:`drive`
    loop, or override :meth:`drive` outright (the live simulator, a
    push producer).  ``kind`` identifies the producer family and is
    recorded in trace headers so a cache never replays a stream of the
    wrong provenance.
    """

    kind: str = "abstract"
    name: str = "source"

    def groups(self) -> Iterator[IssueGroup]:
        """Yield the stream's issue groups in cycle order."""
        raise NotImplementedError

    def drive(self, consumers: Sequence[IssueConsumer]
              ) -> Optional[SimulationResult]:
        """Push the whole stream at ``consumers``; returns the run
        summary when the source knows it (live runs, v2 replays)."""
        consumers = list(consumers)
        for group in self.groups():
            for consumer in consumers:
                consumer(group)
        return self.result

    @property
    def result(self) -> Optional[SimulationResult]:
        """Summary of the run that produced the stream, if known."""
        return None


class LiveSource(IssueSource):
    """The cycle simulator as an issue source.

    Each :meth:`drive` builds a fresh :class:`Simulator` (they are
    single-use) with the consumers attached as listeners and runs it to
    completion — so one ``drive`` is exactly one simulation pass, which
    the simulate-once drivers count on.
    """

    kind = "live"

    def __init__(self, program: Program,
                 config: Optional[MachineConfig] = None,
                 fault_injector=None,
                 telemetry=None):
        self.program = program
        self.config = config if config is not None else MachineConfig()
        self.fault_injector = fault_injector
        self.telemetry = telemetry
        self.name = program.name
        self.simulator: Optional[Simulator] = None
        self._result: Optional[SimulationResult] = None

    def drive(self, consumers: Sequence[IssueConsumer]
              ) -> SimulationResult:
        # module-global lookup kept late so tests can substitute a
        # counting Simulator double via monkeypatching repro.streams
        sim = Simulator(self.program, self.config,
                        fault_injector=self.fault_injector,
                        telemetry=self.telemetry)
        for consumer in consumers:
            sim.add_listener(consumer)
        self.simulator = sim
        self._result = sim.run()
        return self._result

    def groups(self) -> Iterator[IssueGroup]:
        """Simulate now and yield the recorded stream (final flags)."""
        collector = TraceCollector()
        self.drive([collector])
        return iter(collector.groups)

    @property
    def result(self) -> Optional[SimulationResult]:
        return self._result


class MemorySource(IssueSource):
    """An in-process recorded stream: replay without touching disk."""

    kind = "memory"

    def __init__(self, groups: Iterable[IssueGroup], name: str = "memory",
                 result: Optional[SimulationResult] = None):
        self._groups: List[IssueGroup] = list(groups)
        self.name = name
        self._result = result

    def groups(self) -> Iterator[IssueGroup]:
        return iter(self._groups)

    def __len__(self) -> int:
        return len(self._groups)

    @property
    def result(self) -> Optional[SimulationResult]:
        return self._result


class ReplaySource(IssueSource):
    """A trace file as an issue source (re-drivable; streams from disk).

    The header is validated on construction, so a truncated or
    future-version file fails fast with
    :class:`~repro.cpu.tracefile.TraceFormatError` instead of half-way
    through an experiment.
    """

    kind = "replay"

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self.header: Dict[str, Any] = read_trace_header(self.path)
        self.name = self.header.get("name", self.path.stem)
        self._result = header_result(self.header)

    def groups(self) -> Iterator[IssueGroup]:
        return load_trace(self.path)

    @property
    def config_fingerprint(self) -> Optional[str]:
        return self.header.get("config")

    @property
    def result(self) -> Optional[SimulationResult]:
        return self._result


class PackedSource(IssueSource):
    """A packed stream on the object path.

    :meth:`groups` rebuilds the recorded groups one at a time through
    :meth:`~repro.batch.columns.PackedTrace.iter_groups`, so replaying
    a cache entry through classic consumers never holds the decoded
    stream in memory.
    """

    kind = "replay"

    def __init__(self, packed: "PackedTrace"):
        self.packed = packed
        self.name = packed.name

    def groups(self) -> Iterator[IssueGroup]:
        return self.packed.iter_groups()

    @property
    def result(self) -> Optional[SimulationResult]:
        return self.packed.result


class SyntheticSource(IssueSource):
    """Statistics-calibrated generated stream (no simulation at all).

    Wraps :class:`~repro.workloads.generators.SyntheticStream`; each
    :meth:`groups` call restarts the generator from ``seed``, so the
    source is re-drivable and deterministic — driving it twice yields
    bit-identical streams.
    """

    kind = "synthetic"

    def __init__(self, stats, cycles: int, num_modules: int = 4,
                 operand_mode: str = "iid", seed: int = 0):
        from .workloads.generators import OperandModel, SyntheticStream
        self.stats = stats
        self.cycles = cycles
        self.num_modules = num_modules
        self.operand_mode = operand_mode
        self.seed = seed
        self.name = f"synthetic-{operand_mode}"
        self._stream_cls = SyntheticStream
        self._model_cls = OperandModel

    def groups(self) -> Iterator[IssueGroup]:
        model = self._model_cls(self.stats.fu_class, mode=self.operand_mode)
        stream = self._stream_cls(self.stats, num_modules=self.num_modules,
                                  operand_model=model, seed=self.seed)
        return stream.groups(self.cycles)


def drive(source: IssueSource, consumers: Sequence[IssueConsumer],
          finalize: bool = True) -> Optional[SimulationResult]:
    """Run one source into many consumers: the single evaluation loop.

    Every experiment driver funnels through here, whatever the stream's
    provenance.  After the stream ends, each consumer exposing a
    ``finalize()`` method is drained — that is how deferred
    (wrong-path-excluding) evaluators settle their accounts once the
    speculative flags are final.
    """
    consumers = list(consumers)
    result = source.drive(consumers)
    if finalize:
        for consumer in consumers:
            hook = getattr(consumer, "finalize", None)
            if hook is not None:
                hook()
    return result


def capture(source: IssueSource,
            fu_classes: Optional[Iterable[FUClass]] = None,
            extra_consumers: Sequence[IssueConsumer] = ()
            ) -> MemorySource:
    """Drive ``source`` once, returning its stream as a MemorySource.

    The collector stores *references* to the published MicroOps, so
    wrong-path operations squashed later in the run carry their final
    ``speculative`` flags — which is what makes captured streams
    bit-identical to live listening even for deferred accounting.
    ``extra_consumers`` ride along on the same (single) pass, for
    drivers that want one evaluator set scored live while recording.
    """
    collector = TraceCollector(fu_classes)
    result = drive(source, [collector, *extra_consumers])
    return MemorySource(collector.groups, name=source.name, result=result)


def record(source: IssueSource, path: PathLike,
           fu_classes: Optional[Iterable[FUClass]] = None,
           config_fingerprint: Optional[str] = None,
           extra_consumers: Sequence[IssueConsumer] = ()) -> MemorySource:
    """Capture ``source`` and persist it as a version-2 trace file.

    The write is atomic (temp-then-rename) and happens *after* the run,
    so the file always holds final wrong-path flags and the header
    carries the run summary.  Returns the in-process capture so callers
    can replay immediately without re-reading the file.
    """
    if config_fingerprint is None:
        config = getattr(source, "config", None)
        if config is not None:
            config_fingerprint = config.fingerprint()
    memory = capture(source, fu_classes, extra_consumers)
    write_trace(path, memory.groups(), name=source.name,
                fu_classes=fu_classes,
                config_fingerprint=config_fingerprint,
                source_kind=source.kind, result=memory.result)
    return memory


def capture_packed(program: Program, config: MachineConfig,
                   fu_classes: Optional[Iterable[FUClass]] = None,
                   telemetry=None) -> "PackedTrace":
    """Simulate ``program`` once and pack its stream for the kernels.

    The capture is packed after the run, so the columns hold final
    wrong-path flags and the pack carries the run summary.
    ``telemetry`` goes to the simulation.
    """
    # lazy: repro.batch.engine imports this module at load time
    from .batch.columns import pack_stream
    memory = capture(LiveSource(program, config, telemetry=telemetry),
                     fu_classes)
    return pack_stream(memory.groups(), fu_classes, name=memory.name,
                       result=memory.result)


def trace_cache_key(program: Program, config: MachineConfig,
                    fu_classes: Optional[Iterable[FUClass]] = None) -> str:
    """Content-addressed cache key for a (program, machine) stream.

    Two grid cells that differ only in steering policy, LUT shape, swap
    mode, policy-view fault rate, or telemetry knobs share a key — the
    published stream is identical — while a compiler-swapped program or
    any stream-shaping config change (widths, predictor, cache
    geometry) gets its own entry.
    """
    scope = ("all" if fu_classes is None else
             "+".join(sorted(fu.value for fu in fu_classes)))
    return f"{program.fingerprint()}-{config.fingerprint()}-{scope}"


def cache_entry_path(cache_dir: PathLike, key: str) -> Path:
    """The one file a trace-cache entry lives in: ``<key>.pack``.

    Lookup, recording, pruning and the figure driver's prune-protect
    list all name entries through here.
    """
    return Path(cache_dir) / f"{key}.pack"


def cached_source(program: Program, config: MachineConfig,
                  cache_dir: PathLike,
                  fu_classes: Optional[Iterable[FUClass]] = None,
                  key: Optional[str] = None) -> "PackedTrace | None":
    """Look up the recorded stream for (program, config) in a cache dir.

    Returns the entry's :class:`~repro.batch.columns.PackedTrace`
    (columns memory-mapped, run summary attached) on a hit, ``None`` on
    a miss.  A damaged, foreign-version or summary-less pack, or one
    recorded under another config, is a miss rather than a crash.  A
    hit touches the entry's mtime, the recency LRU pruning evicts by.
    ``key`` saves re-hashing the program when the caller has it.
    Pair with :func:`record_cached` to populate.
    """
    # lazy: repro.batch.engine imports this module at load time
    from .batch.sidecar import PackFormatError, load_sidecar
    if key is None:
        key = trace_cache_key(program, config, fu_classes)
    path = cache_entry_path(cache_dir, key)
    try:
        packed = load_sidecar(path, expected_config=config.fingerprint())
    except (PackFormatError, OSError):
        return None
    if packed.result is None:
        return None
    try:
        os.utime(path)
    except OSError:
        pass  # a read-only cache still replays; it just ages
    return packed


def record_cached(program: Program, config: MachineConfig,
                  cache_dir: PathLike,
                  fu_classes: Optional[Iterable[FUClass]] = None,
                  telemetry=None,
                  key: Optional[str] = None) -> "PackedTrace":
    """Simulate once and write the stream's cache entry.

    The stream is packed by :func:`capture_packed`, written atomically
    to the entry's pack file, and returned.
    """
    from .batch.sidecar import write_sidecar
    if key is None:
        key = trace_cache_key(program, config, fu_classes)
    Path(cache_dir).mkdir(parents=True, exist_ok=True)
    packed = capture_packed(program, config, fu_classes, telemetry)
    write_sidecar(cache_entry_path(cache_dir, key), packed,
                  config_fingerprint=config.fingerprint())
    return packed


class TraceCacheLock:
    """Advisory per-key recording lock for a *shared* trace cache.

    On a single host the cache needs no locking: the recording write is
    atomic, and a lost race just wastes one duplicate simulation.  A
    fleet of worker hosts sharing one cache directory makes that waste
    multiplicative — every cell sharing a (program, config) stream
    would simulate it once per host.  This lock makes the recording
    pass fleet-unique in the common case: one worker wins the
    ``O_EXCL`` create of ``<key>.lock``, records, and releases; the
    rest poll for the entry to appear.

    Purely advisory and crash-tolerant by construction: a lock file
    older than ``ttl`` is presumed orphaned by a dead host and broken
    (unlinked and re-contended).  Correctness never depends on the lock
    — the recorded entry is content-addressed and its write is
    atomic-rename, so the worst outcome of any race is a redundant
    simulation whose bytes match what it overwrites.
    """

    def __init__(self, cache_dir: PathLike, key: str, ttl: float = 600.0):
        self.path = Path(cache_dir) / f"{key}.lock"
        self.ttl = ttl
        self._held = False

    def acquire(self) -> bool:
        """Try to take the lock; breaks one stale holder. Non-blocking."""
        for _ in range(2):  # second pass re-contends after a break
            payload = (json.dumps(
                {"host": socket.gethostname(), "pid": os.getpid(),
                 "time": time.time()}) + "\n").encode("utf-8")
            try:
                fd = os.open(self.path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                try:
                    age = time.time() - self.path.stat().st_mtime
                except OSError:
                    continue  # holder released between open and stat
                if age <= self.ttl:
                    return False
                try:  # stale: its holder died recording; break it
                    self.path.unlink()
                except OSError:
                    pass
                continue
            except OSError:
                return False  # unwritable cache dir: fall back unlocked
            try:
                os.write(fd, payload)
            finally:
                os.close(fd)
            self._held = True
            return True
        return False

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        try:
            self.path.unlink()
        except OSError:
            pass

    def __enter__(self) -> "TraceCacheLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


def cached_or_record(program: Program, config: MachineConfig,
                     cache_dir: PathLike,
                     fu_classes: Optional[Iterable[FUClass]] = None,
                     telemetry=None,
                     lock_ttl: float = 600.0,
                     poll: float = 0.2,
                     max_wait: Optional[float] = None,
                     key: Optional[str] = None
                     ) -> Tuple["PackedTrace", str]:
    """Fleet-safe cache lookup: replay a hit, or record exactly once.

    Returns ``(stream, state)``: the entry's
    :class:`~repro.batch.columns.PackedTrace` and ``"hit"``, or the
    fresh recording, packed the same way, and ``"miss"``.  Either way
    nothing has consumed the stream yet: callers score it with
    :func:`~repro.batch.batch_drive` (or replay it through
    :class:`PackedSource`), the same on a hit as on a miss.  The key is
    hashed once per call (or taken from ``key``).  ``telemetry`` goes to
    the recording simulation only; a hit's pack carries the original
    run's counters.

    On a miss, contends on :class:`TraceCacheLock` so that across every
    process on every host sharing ``cache_dir``, one worker simulates
    and the rest replay.  A loser polls for the winner's entry with
    full-jitter exponential backoff (``poll`` is the first ceiling) —
    a thundering herd of coalesced losers must not wake in lockstep
    and hammer the filesystem together.  If the entry never appears
    within ``max_wait`` (default ``2 * lock_ttl`` — the winner
    crashed, or the clock-skewed lock never went stale), the loser
    records unlocked: duplicated work, never a wrong or missing
    result.
    """
    # lazy: repro.runner.__init__ pulls in campaign, which imports this
    # module — a top-level import here would close that cycle
    from .runner.pool import full_jitter_delay

    Path(cache_dir).mkdir(parents=True, exist_ok=True)
    if key is None:
        key = trace_cache_key(program, config, fu_classes)
    deadline = time.monotonic() + (2 * lock_ttl if max_wait is None
                                   else max_wait)
    attempt = 0

    def record_now() -> Tuple["PackedTrace", str]:
        return record_cached(program, config, cache_dir, fu_classes,
                             telemetry=telemetry, key=key), "miss"

    while True:
        found = cached_source(program, config, cache_dir, fu_classes, key)
        if found is not None:
            return found, "hit"
        lock = TraceCacheLock(cache_dir, key, ttl=lock_ttl)
        if lock.acquire():
            try:
                # the winner re-checks under the lock: the previous
                # holder may have published between our miss and our
                # acquire, and replay beats re-simulating
                found = cached_source(program, config, cache_dir,
                                      fu_classes, key)
                if found is not None:
                    return found, "hit"
                return record_now()
            finally:
                lock.release()
        if time.monotonic() >= deadline:
            # give up on the lock holder; record redundantly rather
            # than wedge the campaign on a dead peer
            return record_now()
        # cap the ceiling at 16x poll: late losers should still notice
        # the published entry within a few seconds, they just must not
        # all notice it in the same instant
        attempt = min(attempt + 1, 5)
        time.sleep(min(full_jitter_delay(poll, attempt),
                       max(0.0, deadline - time.monotonic())))


def prune_trace_cache(cache_dir: PathLike, limit_mb: float,
                      protect: Iterable[PathLike] = ()) -> List[Path]:
    """Evict least-recently-used trace-cache entries past ``limit_mb``.

    An entry is one pack file (:func:`cache_entry_path`), aged by its
    mtime — every hit touches it — so the oldest entries go first.
    Entries named in ``protect`` are never evicted, even when that
    leaves the cache over the limit: evicting the stream an in-flight
    figure run is replaying would turn its next pass into a cache miss
    mid-run.  Every stat and unlink is individually guarded: a
    concurrently-removed or unreadable file is skipped, never fatal.
    Returns the list of deleted paths.
    """
    directory = Path(cache_dir)
    if not directory.is_dir():
        return []
    protected = {Path(p).resolve() for p in protect}
    limit_bytes = int(limit_mb * 1024 * 1024)
    entries = []  # (mtime, path, size)
    for path in directory.glob(cache_entry_path(directory, "*").name):
        try:
            stat = path.stat()
        except OSError:
            continue  # raced with another pruner; entry is going away
        entries.append((stat.st_mtime, path, stat.st_size))
    total = sum(size for _, _, size in entries)
    deleted: List[Path] = []
    for _, path, size in sorted(entries, key=lambda entry: entry[0]):
        if total <= limit_bytes:
            break
        if path.resolve() in protected:
            continue
        try:
            path.unlink()
        except OSError:
            pass  # vanished under another pruner: its bytes are gone
        else:
            deleted.append(path)
        total -= size
    return deleted


__all__ = [
    "IssueConsumer", "IssueSource", "LiveSource", "MemorySource",
    "PackedSource", "ReplaySource", "SyntheticSource", "SOURCE_KINDS",
    "cache_entry_path", "capture", "capture_packed", "cached_or_record",
    "cached_source",
    "drive", "prune_trace_cache", "record", "record_cached",
    "trace_cache_key",
]
