"""Bit-pattern statistics: reproduces Table 1 and Table 3.

:class:`BitPatternCollector` subscribes to a simulator's issue stream
and accumulates, for one FU class, the eight Table 1 rows — occurrence
frequency of each (operand-1 information bit, operand-2 information
bit, commutativity) combination, and the probability of any single bit
being high in each operand.  The same collector serves Table 3 (the
multiplier classes), whose published form merges the commutativity
split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cpu.trace import IssueGroup
from ..isa import encoding
from ..isa.instructions import FUClass
from ..core.info_bits import CASES, InfoBitScheme, scheme_for
from ..core.power import operand_width
from ..core.statistics import CaseStatistics

RowKey = Tuple[int, bool]  # (case, commutative)


@dataclass
class RowStats:
    """Accumulated statistics for one (case, commutativity) row."""

    count: int = 0
    ones_op1: int = 0
    ones_op2: int = 0

    def bit_prob(self, operand: int, width: int) -> float:
        """Probability that any single bit of the operand is high."""
        if not self.count:
            return 0.0
        ones = self.ones_op1 if operand == 0 else self.ones_op2
        return ones / (self.count * width)


class BitPatternCollector:
    """Issue listener accumulating Table 1 style rows for one FU class."""

    def __init__(self, fu_class: FUClass,
                 scheme: Optional[InfoBitScheme] = None,
                 include_speculative: bool = True):
        self.fu_class = fu_class
        self.scheme = scheme or scheme_for(fu_class)
        self.include_speculative = include_speculative
        self._width = operand_width(fu_class)
        self._mask = (1 << self._width) - 1
        self.rows: Dict[RowKey, RowStats] = {
            (case, commutative): RowStats()
            for case in CASES for commutative in (True, False)}
        self.total_ops = 0

    def __call__(self, group: IssueGroup) -> None:
        if group.fu_class is not self.fu_class:
            return
        for op in group.ops:
            if op.speculative and not self.include_speculative:
                continue
            op2 = op.op2 if op.has_two else 0
            case = self.scheme.case_of(op.op1, op2)
            row = self.rows[(case, op.op.hardware_swappable)]
            row.count += 1
            row.ones_op1 += encoding.popcount(op.op1 & self._mask)
            row.ones_op2 += encoding.popcount(op2 & self._mask)
            self.total_ops += 1

    # ----- views -----------------------------------------------------------

    def frequency(self, case: int, commutative: bool) -> float:
        """Fraction of all operations in one Table 1 row."""
        if not self.total_ops:
            return 0.0
        return self.rows[(case, commutative)].count / self.total_ops

    def case_frequency(self, case: int) -> float:
        """Fraction of operations with this case (rows merged)."""
        return self.frequency(case, True) + self.frequency(case, False)

    def bit_prob(self, case: int, commutative: bool, operand: int) -> float:
        return self.rows[(case, commutative)].bit_prob(operand, self._width)

    def merged_bit_prob(self, case: int, operand: int) -> float:
        """Bit probability with commutativity rows merged (Table 3 form)."""
        merged = RowStats()
        for commutative in (True, False):
            row = self.rows[(case, commutative)]
            merged.count += row.count
            merged.ones_op1 += row.ones_op1
            merged.ones_op2 += row.ones_op2
        return merged.bit_prob(operand, self._width)

    def merge(self, other: "BitPatternCollector") -> None:
        """Fold another collector's counts into this one (suite totals)."""
        if other.fu_class is not self.fu_class:
            raise ValueError("cannot merge collectors of different FU classes")
        for key, row in other.rows.items():
            mine = self.rows[key]
            mine.count += row.count
            mine.ones_op1 += row.ones_op1
            mine.ones_op2 += row.ones_op2
        self.total_ops += other.total_ops

    def __getstate__(self) -> dict:
        # a parallel figure-4 statistics partial crosses a process
        # boundary to be merged: its scheme holds lambdas, which do not
        # pickle, and merging counts never consults it
        state = dict(self.__dict__)
        state["scheme"] = None
        return state

    def to_case_frequencies(self) -> Dict[RowKey, float]:
        if not self.total_ops:
            return {key: 0.0 for key in self.rows}
        return {key: row.count / self.total_ops
                for key, row in self.rows.items()}

    def table_rows(self) -> List[Tuple[str, str, str, float, float, float]]:
        """Rows in the paper's Table 1 layout:
        (op1 bit, op2 bit, commutative, freq %, P(op1 bit), P(op2 bit))."""
        rows = []
        for case in CASES:
            for commutative in (True, False):
                rows.append((
                    str((case >> 1) & 1), str(case & 1),
                    "Yes" if commutative else "No",
                    100.0 * self.frequency(case, commutative),
                    self.bit_prob(case, commutative, 0),
                    self.bit_prob(case, commutative, 1),
                ))
        return rows

    def to_statistics(self, usage: Dict[int, float]) -> CaseStatistics:
        """Bundle with a usage distribution into a CaseStatistics."""
        return CaseStatistics(self.fu_class, self.to_case_frequencies(),
                              usage)
