"""Operand traces: the interface between the cycle simulator and the
steering/power evaluation layers.

Every cycle, the simulator emits one :class:`IssueGroup` per functional
unit class that issued at least one operation.  A group carries the
operations' operand *bit images* — exactly the information the paper's
routing logic sees.  Evaluation is stream-based: consumers subscribe to
the simulator and see groups as they are produced, so many steering
policies can be evaluated in a single simulation pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from ..isa.instructions import FUClass, OpcodeInfo


@dataclass(slots=True)
class MicroOp:
    """One executed operation as seen at a functional unit's inputs.

    ``op1`` and ``op2`` are operand bit images (32-bit for integer
    classes, 64-bit for floating point classes).  Single-source
    operations carry ``op2 = 0`` with ``has_two = False`` — the second
    input port of the FU holds its previous (latched) value conceptually,
    but the paper's information-bit scheme treats the missing operand as
    a zero image, and we follow that convention consistently.
    """

    op: OpcodeInfo
    op1: int
    op2: int
    has_two: bool = True
    static_index: int = -1
    speculative: bool = False
    swapped: bool = False
    # oldest-first issue marks the op most likely on the critical path;
    # used by the heterogeneous-module hybrid (related work [19])
    critical: bool = False

    @property
    def hardware_swappable(self) -> bool:
        return self.op.hardware_swappable and self.has_two

    def swap(self) -> "MicroOp":
        """Return a copy with the operands exchanged."""
        return MicroOp(self.op, self.op2, self.op1, has_two=self.has_two,
                       static_index=self.static_index,
                       speculative=self.speculative, swapped=not self.swapped,
                       critical=self.critical)


@dataclass(slots=True)
class IssueGroup:
    """Operations of one FU class issued in one cycle."""

    cycle: int
    fu_class: FUClass
    ops: List[MicroOp]

    def __len__(self) -> int:
        return len(self.ops)


IssueListener = Callable[[IssueGroup], None]


@dataclass
class SimulationResult:
    """Summary statistics of one simulation run."""

    name: str
    cycles: int = 0
    retired_instructions: int = 0
    executed_ops: int = 0
    squashed_ops: int = 0
    branch_lookups: int = 0
    branch_mispredictions: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    issue_counts: Dict[FUClass, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.retired_instructions / self.cycles if self.cycles else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-able form, stored in trace headers so a replayed stream
        still knows the run it came from."""
        return {
            "name": self.name,
            "cycles": self.cycles,
            "retired_instructions": self.retired_instructions,
            "executed_ops": self.executed_ops,
            "squashed_ops": self.squashed_ops,
            "branch_lookups": self.branch_lookups,
            "branch_mispredictions": self.branch_mispredictions,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "issue_counts": {fu.value: count
                             for fu, count in self.issue_counts.items()},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SimulationResult":
        result = cls(name=payload.get("name", "trace"))
        for attr in ("cycles", "retired_instructions", "executed_ops",
                     "squashed_ops", "branch_lookups",
                     "branch_mispredictions", "cache_hits", "cache_misses"):
            setattr(result, attr, int(payload.get(attr, 0)))
        result.issue_counts = {FUClass(name): int(count) for name, count
                               in payload.get("issue_counts", {}).items()}
        return result

    def telemetry_counters(self) -> Dict[str, int]:
        """The cumulative counters a live :class:`Simulator` exposes to
        telemetry, reconstructed from the stored totals — a replayed
        cell reports the same metric names as a simulated one."""
        counters = {
            "sim.cycles": self.cycles,
            "retired": self.retired_instructions,
            "executed": self.executed_ops,
            "squashed": self.squashed_ops,
            "branch.lookups": self.branch_lookups,
            "branch.mispredictions": self.branch_mispredictions,
        }
        for fu in FUClass:
            counters[f"issue.{fu.value}"] = self.issue_counts.get(fu, 0)
        return counters


class TraceCollector:
    """Issue listener that stores the full trace in memory.

    Intended for tests and small workloads; large experiments subscribe
    stream evaluators directly instead.
    """

    def __init__(self, fu_classes: Optional[Iterable[FUClass]] = None):
        self._filter = set(fu_classes) if fu_classes is not None else None
        self.groups: List[IssueGroup] = []

    def __call__(self, group: IssueGroup) -> None:
        if self._filter is None or group.fu_class in self._filter:
            self.groups.append(group)

    def groups_for(self, fu_class: FUClass) -> Iterator[IssueGroup]:
        return (group for group in self.groups if group.fu_class == fu_class)

    def op_count(self, fu_class: Optional[FUClass] = None) -> int:
        return sum(len(group) for group in self.groups
                   if fu_class is None or group.fu_class == fu_class)

