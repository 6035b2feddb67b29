"""Out-of-order superscalar cycle simulator (SimpleScalar stand-in)."""

from .branch import BimodalPredictor
from .cache import CacheConfig, DataCache
from .config import DEFAULT_FU_COUNTS, MachineConfig, default_config
from .golden import ExecutionLimitExceeded, GoldenResult, run_program
from .memory import Memory, MemoryError_
from .simulator import (CycleLimitExceeded, DeadlockDetected,
                        DiagnosticSnapshot, Simulator, simulate)
from .trace import (IssueGroup, IssueListener, MicroOp, SimulationResult,
                    TraceCollector)
from .tracefile import (FORMAT_VERSION, SUPPORTED_VERSIONS, TraceFormatError,
                        header_result, load_trace, read_trace_header,
                        write_trace)

__all__ = [
    "BimodalPredictor",
    "CacheConfig", "DataCache",
    "DEFAULT_FU_COUNTS", "MachineConfig", "default_config",
    "ExecutionLimitExceeded", "GoldenResult", "run_program",
    "Memory", "MemoryError_",
    "CycleLimitExceeded", "DeadlockDetected", "DiagnosticSnapshot",
    "Simulator", "simulate",
    "IssueGroup", "IssueListener", "MicroOp", "SimulationResult",
    "TraceCollector",
    "FORMAT_VERSION", "SUPPORTED_VERSIONS", "TraceFormatError",
    "header_result", "load_trace", "read_trace_header", "write_trace",
]
