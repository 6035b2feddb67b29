"""Batch engine: packed streams wired into the trace cache.

This is the glue between the columnar kernels and the experiment
drivers: it produces a :class:`~repro.batch.columns.PackedTrace` for a
(program, machine-config) pair through the trace cache's fleet-safe
lookup, :func:`repro.streams.cached_or_record` — plus a *packed
sidecar* next to each cached trace so a warm cache hit memory-maps the
columns instead of re-parsing gzip JSON.

Cache behaviour per call:

* **hit, sidecar valid** — the sidecar is memory-mapped; the JSON trace
  is not parsed at all.  The trace's mtime is touched so LRU pruning
  (:func:`repro.streams.prune_trace_cache`) sees it as recently used.
* **hit, sidecar missing/corrupt/stale/future** — the trace is packed
  by *streaming* ``ReplaySource.groups()`` straight from disk (never
  materialising the object stream), and the sidecar is rewritten
  best-effort.
* **miss** — one simulation populates the cache under
  ``TraceCacheLock`` (a concurrent recorder of the same key is waited
  for and replayed instead), the fresh capture is packed from memory,
  and the sidecar is written alongside once the lock is released.
* **no cache dir** — plain capture-and-pack, nothing persisted.

:func:`drive_stream` dispatches a consumer set over either stream shape
so drivers can hold packed and object sources in the same list.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Optional, Sequence, Tuple

from ..cpu.config import MachineConfig
from ..isa.instructions import FUClass
from ..isa.program import Program
from ..streams import (LiveSource, cached_or_record, capture, drive,
                       trace_cache_key)
from .columns import PackedTrace, pack_stream
from .kernels import batch_drive
from .sidecar import (PackFormatError, load_sidecar, sidecar_path,
                      write_sidecar)

#: selectable evaluation engines: ``batch`` (the fused columnar kernels)
#: and ``object`` (the decoded-stream reference oracle)
ENGINES = ("batch", "object")


def _load_or_repack(found, config_fingerprint: str,
                    fu_classes) -> PackedTrace:
    """Resolve a cache hit to columns: mmap the sidecar, or re-pack.

    Corrupt, truncated, stale, or future-versioned sidecars degrade to
    a streaming re-pack of the JSON trace — a damaged sidecar must
    never sink the experiment (mirroring how a damaged trace is a
    cache miss, not a crash).
    """
    side = sidecar_path(found.path)
    try:
        packed = load_sidecar(side, expected_config=config_fingerprint)
    except (PackFormatError, OSError):
        # ReplaySource.groups() streams from disk, so the re-pack never
        # holds the decoded object stream in memory
        packed = pack_stream(found.groups(), fu_classes, name=found.name)
        try:
            write_sidecar(side, packed,
                          config_fingerprint=config_fingerprint)
        except OSError:
            pass  # a read-only cache still works, just slower
    packed.name = found.name
    packed.result = found.result
    return packed


def packed_cached(program: Program, config: MachineConfig,
                  cache_dir, fu_classes: Optional[Iterable[FUClass]] = None,
                  telemetry=None) -> Tuple[PackedTrace, bool]:
    """One packed stream per program version, simulated at most once.

    The columnar analogue of the drivers' ``_captured_stream``: returns
    ``(packed, cache_hit)`` with identical cache-population semantics,
    plus sidecar persistence and an LRU mtime touch on hits.
    """
    if cache_dir is None:
        memory = capture(LiveSource(program, config, telemetry=telemetry),
                         fu_classes)
        return pack_stream(memory.groups(), fu_classes, name=memory.name,
                           result=memory.result), False
    source, state = cached_or_record(program, config, cache_dir, fu_classes,
                                     telemetry=telemetry)
    if state == "hit":
        try:
            os.utime(source.path)  # LRU recency for cache pruning
        except OSError:
            pass
        return (_load_or_repack(source, config.fingerprint(), fu_classes),
                True)
    packed = pack_stream(source.groups(), fu_classes, name=source.name,
                         result=source.result)
    side = sidecar_path(
        Path(cache_dir)
        / (trace_cache_key(program, config, fu_classes) + ".trace.gz"))
    try:
        write_sidecar(side, packed, config_fingerprint=config.fingerprint())
    except OSError:
        pass
    return packed, False


def drive_stream(stream, consumers: Sequence, finalize: bool = True):
    """Drive consumers over a packed *or* object stream.

    Lets the experiment drivers keep one code path whichever engine
    produced the stream: packed traces go through the fused kernels,
    everything else through the classic object loop.
    """
    if isinstance(stream, PackedTrace):
        return batch_drive(stream, consumers, finalize=finalize)
    return drive(stream, consumers, finalize=finalize)
