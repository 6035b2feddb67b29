"""Columnar packed traces: decode an issue stream once into flat arrays.

Replay through :class:`~repro.streams.MemorySource` materialises one
``IssueGroup`` and one ``MicroOp`` *object* per operation and pays
Python attribute access for every field every time a consumer touches
the stream.  A :class:`PackedTrace` decodes the stream exactly once
into flat ``array`` columns — operand words, opcode indices, flag
bytes, group offsets — plus two things the paper's evaluation layers
recompute per op otherwise:

* the **information-bit case** of every operation under the FU class's
  paper scheme (``scheme_for``), precomputed at pack time;
* the masked **popcounts** of both operands (the Table 1 statistics
  kernels consume these directly).

The fused evaluation kernels in :mod:`repro.batch.kernels` then run
policies over these columns with per-module previous-operand state in
local variables.  :meth:`PackedTrace.iter_groups` reconstructs the
original object stream (bit-identically, in the original global group
order) for round-trip tests and for consumers without a kernel.

Column layout, per FU class (one :class:`PackedColumns`):

=========  ========  ==================================================
column     typecode  meaning (one entry per group / per op)
=========  ========  ==================================================
cycles     ``Q``     per group: issue cycle
offsets    ``I``     per group + 1: prefix sums into the op columns
op1, op2   ``Q``     per op: operand bit images
opcode     ``H``     per op: index into the trace's opcode-name table
flags      ``B``     per op: bit flags (see ``F_*`` constants)
case       ``B``     per op: info-bit case under the pack scheme
pop1,pop2  ``B``     per op: ``popcount(op & mask)`` (op2 as case rule)
static     ``i``     per op: ``static_index``
=========  ========  ==================================================
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..cpu.trace import IssueGroup, MicroOp, SimulationResult
from ..isa.encoding import bit_count as _bit_count
from ..isa.instructions import FUClass, OpcodeInfo, opcode as _opcode
from ..core.info_bits import scheme_for
from ..core.power import operand_width

# per-op flag bits (the ``flags`` column)
F_HAS_TWO = 1    # op.has_two
F_SPEC = 2       # op.speculative (final wrong-path flag)
F_SWAPPED = 4    # op.swapped (as recorded in the stream)
F_CRITICAL = 8   # op.critical
F_COMMUT = 16    # opcode-level: op.op.hardware_swappable
F_HW_SWAP = 32   # op-level: op.hardware_swappable (commut AND has_two)

#: case after exchanging the two operands (info_bits.swapped_case as a LUT)
SWAPPED_CASE = (0b00, 0b10, 0b01, 0b11)

#: column name -> array typecode, in serialisation order
OP_COLUMNS = (("op1", "Q"), ("op2", "Q"), ("opcode", "H"), ("flags", "B"),
              ("case", "B"), ("pop1", "B"), ("pop2", "B"), ("static", "i"))
GROUP_COLUMNS = (("cycles", "Q"), ("offsets", "I"))
ALL_COLUMNS = GROUP_COLUMNS + OP_COLUMNS

#: array typecode -> little-endian NumPy dtype string.  Columns are
#: stored as ``array.array`` (fresh packs) or ``memoryview`` casts over
#: the pack-file mmap; both expose the buffer protocol, so the array
#: kernels wrap them with ``np.frombuffer(column, dtype)`` —
#: a zero-copy view, never a converted copy.
NUMPY_DTYPES = {"Q": "<u8", "I": "<u4", "H": "<u2", "B": "u1", "i": "<i4"}


class PackedColumns:
    """Flat columns for one FU class's groups (see module docstring).

    ``conventional`` records whether every single-source op carried the
    documented ``op2 == 0`` convention; kernels that summarise operands
    through the ``case`` column require it (simulator streams always
    satisfy it, hand-built adversarial traces may not).
    """

    __slots__ = ("fu_class", "scheme", "mask", "conventional",
                 "cycles", "offsets", "op1", "op2", "opcode", "flags",
                 "case", "pop1", "pop2", "static")

    def __init__(self, fu_class: FUClass):
        self.fu_class = fu_class
        self.scheme = scheme_for(fu_class)
        self.mask = (1 << operand_width(fu_class)) - 1
        self.conventional = True
        self.cycles = array("Q")
        self.offsets = array("I", [0])
        self.op1 = array("Q")
        self.op2 = array("Q")
        self.opcode = array("H")
        self.flags = array("B")
        self.case = array("B")
        self.pop1 = array("B")
        self.pop2 = array("B")
        self.static = array("i")

    @property
    def n_groups(self) -> int:
        return len(self.cycles)

    @property
    def n_ops(self) -> int:
        return len(self.op1)

    def column(self, name: str):
        return getattr(self, name)


class PackedTrace:
    """One packed issue stream: per-class columns plus the global group
    order, the opcode-name table, and (when known) the run summary."""

    def __init__(self, name: str = "packed",
                 result: Optional[SimulationResult] = None):
        self.name = name
        self.result = result
        self.classes: Dict[FUClass, PackedColumns] = {}
        self.class_list: List[FUClass] = []
        #: per global group: index into ``class_list``
        self.order = array("B")
        self.opcode_names: List[str] = []
        self._opcode_index: Dict[str, int] = {}
        self._opcode_objs: Optional[List[OpcodeInfo]] = None
        # backing store (pack-file mmap) kept alive while columns are used
        self._mmap = None

    @property
    def n_groups(self) -> int:
        return len(self.order)

    @property
    def n_ops(self) -> int:
        return sum(cols.n_ops for cols in self.classes.values())

    def fu_classes(self) -> Tuple[FUClass, ...]:
        return tuple(self.class_list)

    def _intern_opcode(self, name: str) -> int:
        index = self._opcode_index.get(name)
        if index is None:
            index = len(self.opcode_names)
            self._opcode_index[name] = index
            self.opcode_names.append(name)
        return index

    def _columns_for(self, fu_class: FUClass) -> PackedColumns:
        cols = self.classes.get(fu_class)
        if cols is None:
            cols = PackedColumns(fu_class)
            self.classes[fu_class] = cols
            self.class_list.append(fu_class)
        return cols

    def add_group(self, group: IssueGroup) -> None:
        """Append one issue group (streaming; holds no references)."""
        cols = self._columns_for(group.fu_class)
        self.order.append(self.class_list.index(group.fu_class))
        cols.cycles.append(group.cycle)
        mask = cols.mask
        case_fn = cols.scheme.pair_case or cols.scheme.case_of
        for op in group.ops:
            flags = 0
            if op.has_two:
                flags |= F_HAS_TWO
            elif op.op2:
                cols.conventional = False
            if op.speculative:
                flags |= F_SPEC
            if op.swapped:
                flags |= F_SWAPPED
            if op.critical:
                flags |= F_CRITICAL
            if op.op.hardware_swappable:
                flags |= F_COMMUT
                if op.has_two:
                    flags |= F_HW_SWAP
            op2_case = op.op2 if op.has_two else 0
            cols.op1.append(op.op1)
            cols.op2.append(op.op2)
            cols.opcode.append(self._intern_opcode(op.op.name))
            cols.flags.append(flags)
            cols.case.append(case_fn(op.op1, op2_case))
            cols.pop1.append(_bit_count(op.op1 & mask))
            cols.pop2.append(_bit_count(op2_case & mask))
            cols.static.append(op.static_index)
        cols.offsets.append(cols.n_ops)

    # ----- object-stream reconstruction -----------------------------------

    def _opcodes(self) -> List[OpcodeInfo]:
        if self._opcode_objs is None or \
                len(self._opcode_objs) != len(self.opcode_names):
            self._opcode_objs = [_opcode(name) for name in self.opcode_names]
        return self._opcode_objs

    def iter_groups(self) -> Iterator[IssueGroup]:
        """Reconstruct the original object stream, group order included.

        Every MicroOp field round-trips exactly; used by consumers that
        have no columnar kernel and by the pack/unpack identity tests.
        """
        opcodes = self._opcodes()
        cursors = [0] * len(self.class_list)
        for class_index in self.order:
            fu_class = self.class_list[class_index]
            cols = self.classes[fu_class]
            g = cursors[class_index]
            cursors[class_index] = g + 1
            start, end = cols.offsets[g], cols.offsets[g + 1]
            ops = [MicroOp(opcodes[cols.opcode[i]], cols.op1[i], cols.op2[i],
                           has_two=bool(cols.flags[i] & F_HAS_TWO),
                           static_index=cols.static[i],
                           speculative=bool(cols.flags[i] & F_SPEC),
                           swapped=bool(cols.flags[i] & F_SWAPPED),
                           critical=bool(cols.flags[i] & F_CRITICAL))
                   for i in range(start, end)]
            yield IssueGroup(int(cols.cycles[g]), fu_class, ops)

    def groups(self) -> Iterator[IssueGroup]:
        """IssueSource-style alias so a PackedTrace can stand in where a
        re-drivable pull source is expected."""
        return self.iter_groups()


def pack_stream(groups: Iterable[IssueGroup],
                fu_classes: Optional[Iterable[FUClass]] = None,
                name: str = "packed",
                result: Optional[SimulationResult] = None) -> PackedTrace:
    """Pack an issue-group iterable into columns in one streaming pass.

    ``fu_classes`` filters like the trace writers do: groups of other
    classes are dropped entirely.  The iterable is consumed lazily —
    packing a :class:`~repro.streams.ReplaySource`'s ``groups()`` never
    holds more than one decoded group in memory.
    """
    wanted = set(fu_classes) if fu_classes is not None else None
    packed = PackedTrace(name=name, result=result)
    for group in groups:
        if wanted is not None and group.fu_class not in wanted:
            continue
        packed.add_group(group)
    return packed
