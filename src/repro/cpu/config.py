"""Machine configuration for the out-of-order simulator.

The defaults reproduce the paper's evaluation machine: SimpleScalar 2.0
``sim-outorder`` in its default configuration — a 4-wide out-of-order
superscalar with 4 integer ALUs, 4 floating point adders, one integer
multiplier/divider and one floating point multiplier/divider.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..isa.instructions import FUClass
from ..telemetry.config import TelemetryConfig
from .cache import CacheConfig

DEFAULT_FU_COUNTS: Dict[FUClass, int] = {
    FUClass.IALU: 4,
    FUClass.FPAU: 4,
    FUClass.IMULT: 1,
    FUClass.FPMULT: 1,
    FUClass.LSU: 2,
}

# FU classes that are not internally pipelined: a new operation may not
# begin until the previous one completes.
UNPIPELINED_CLASSES = frozenset({FUClass.IMULT, FUClass.FPMULT})


@dataclass
class MachineConfig:
    """Parameters of the simulated superscalar core."""

    fetch_width: int = 4
    dispatch_width: int = 4
    retire_width: int = 4
    rob_entries: int = 64
    rs_entries_per_class: int = 8
    fu_counts: Dict[FUClass, int] = field(
        default_factory=lambda: dict(DEFAULT_FU_COUNTS))
    branch_predictor_entries: int = 2048
    branch_predictor: str = "bimodal"  # or "gshare"
    mispredict_penalty: int = 2
    max_cycles: int = 50_000_000
    # retirement-progress watchdog: if no instruction retires for this
    # many cycles while the ROB is non-empty, the simulator raises
    # DeadlockDetected with a diagnostic snapshot instead of spinning
    # until max_cycles.  Must comfortably exceed the longest completion
    # latency (unpipelined chains + cache misses); 0 disables.
    watchdog_cycles: int = 100_000
    # L1 data cache; None models an ideal (always-hit) memory
    cache: Optional[CacheConfig] = field(default_factory=CacheConfig)
    # what to record while running; None disables telemetry entirely
    # (the simulator then skips every hook — the near-zero-cost path)
    telemetry: Optional[TelemetryConfig] = None

    def __post_init__(self) -> None:
        if self.fetch_width < 1 or self.dispatch_width < 1 or self.retire_width < 1:
            raise ValueError("pipeline widths must be at least 1")
        if self.rob_entries < self.dispatch_width:
            raise ValueError("ROB must hold at least one dispatch group")
        for fu_class in FUClass:
            if self.fu_counts.get(fu_class, 0) < 1:
                raise ValueError(f"need at least one {fu_class.value} unit")
        if self.branch_predictor_entries & (self.branch_predictor_entries - 1):
            raise ValueError("branch predictor size must be a power of two")
        if self.branch_predictor not in ("bimodal", "gshare"):
            raise ValueError("branch predictor must be 'bimodal' or 'gshare'")
        if self.watchdog_cycles < 0:
            raise ValueError("watchdog_cycles must be >= 0 (0 disables)")

    def modules(self, fu_class: FUClass) -> int:
        """Number of modules of the given FU class."""
        return self.fu_counts[fu_class]

    def fingerprint(self) -> str:
        """Stable hash of every field that shapes the run's outcome.

        This keys the trace cache, so it covers the parameters that can
        change what a simulation *publishes* — pipeline widths and
        capacities, FU counts, the branch predictor, the cache
        geometry/timing — plus the abort limits ``max_cycles`` and
        ``watchdog_cycles``.  The limits never alter a completed
        stream, but they decide whether a run completes at all: a
        config that would abort (and surface its diagnostic snapshot)
        must not silently replay a more permissive config's trace.
        ``telemetry`` only observes and is deliberately excluded —
        turning sampling on must not invalidate a cache.
        """
        cache = None
        if self.cache is not None:
            cache = [self.cache.size_bytes, self.cache.line_bytes,
                     self.cache.associativity, self.cache.miss_penalty]
        payload = [
            self.fetch_width, self.dispatch_width, self.retire_width,
            self.rob_entries, self.rs_entries_per_class,
            {fu.value: count for fu, count in sorted(
                self.fu_counts.items(), key=lambda kv: kv[0].value)},
            self.branch_predictor, self.branch_predictor_entries,
            self.mispredict_penalty, cache,
            self.max_cycles, self.watchdog_cycles,
        ]
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


#: MachineConfig fields a campaign config cell or a server request may
#: override: scalars only, so specs and requests stay JSON-able (the
#: nested cache and telemetry configs are not overridable)
CONFIG_FIELDS = frozenset({
    "fetch_width", "dispatch_width", "retire_width", "rob_entries",
    "rs_entries_per_class", "branch_predictor_entries", "branch_predictor",
    "mispredict_penalty", "max_cycles", "watchdog_cycles",
})


def default_config() -> MachineConfig:
    """The paper's evaluation configuration."""
    return MachineConfig()
