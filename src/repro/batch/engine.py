"""Batch engine: the engine choice and stream dispatch.

Packed streams come from the trace cache: every cache entry is a pack
file, so :func:`repro.streams.cached_or_record` hands back a
:class:`~repro.batch.columns.PackedTrace` whose columns are
memory-mapped on a hit or freshly packed on a miss.  Without a cache
dir, drivers pack a live run themselves with
:func:`~repro.streams.capture_packed`.

:func:`drive_stream` dispatches a consumer set over either stream shape
so drivers can hold packed and object sources in the same list.
"""

from __future__ import annotations

from typing import Sequence

from ..streams import drive
from .columns import PackedTrace
from .kernels import batch_drive

#: selectable evaluation engines: ``batch`` (the fused columnar kernels)
#: and ``object`` (the decoded-stream reference oracle)
ENGINES = ("batch", "object")


def drive_stream(stream, consumers: Sequence, finalize: bool = True):
    """Drive consumers over a packed *or* object stream.

    Lets the experiment drivers keep one code path whichever engine
    produced the stream: packed traces go through the fused kernels,
    everything else through the classic object loop.
    """
    if isinstance(stream, PackedTrace):
        return batch_drive(stream, consumers, finalize=finalize)
    return drive(stream, consumers, finalize=finalize)
