"""Columnar batch-evaluation engine.

Decode a recorded issue stream **once** into flat packed columns
(:mod:`~repro.batch.columns`), evaluate every requested policy/swap
cell with fused kernels over those columns (:mod:`~repro.batch.kernels`,
NumPy array kernels plus one scalar full-Hamming matcher), and store
the columns as a memory-mappable pack file (:mod:`~repro.batch.sidecar`),
the trace cache's one entry format.  The object path in
:mod:`repro.streams` remains the reference oracle: the parity tests in
``tests/batch`` prove bit-identical ``EvaluationTotals`` and telemetry
counters between the two engines.
"""

from .columns import (ALL_COLUMNS, F_COMMUT, F_CRITICAL, F_HAS_TWO,
                      F_HW_SWAP, F_SPEC, F_SWAPPED, GROUP_COLUMNS,
                      NUMPY_DTYPES, OP_COLUMNS, PackedColumns, PackedTrace,
                      SWAPPED_CASE, pack_stream)
from .engine import ENGINES, drive_stream
from .kernels import POPCOUNT16, batch_drive, popcount64
from .sidecar import (MAGIC, PACK_VERSION, PackFormatError,
                      SUPPORTED_PACK_VERSIONS, load_sidecar, write_sidecar)

__all__ = [
    "ALL_COLUMNS", "ENGINES", "GROUP_COLUMNS", "MAGIC", "NUMPY_DTYPES",
    "OP_COLUMNS", "PACK_VERSION", "POPCOUNT16", "PackFormatError",
    "PackedColumns", "PackedTrace", "SUPPORTED_PACK_VERSIONS",
    "SWAPPED_CASE",
    "F_COMMUT", "F_CRITICAL", "F_HAS_TWO", "F_HW_SWAP", "F_SPEC",
    "F_SWAPPED",
    "batch_drive", "drive_stream", "load_sidecar", "pack_stream",
    "popcount64", "write_sidecar",
]
