"""Fused columnar evaluation kernels.

:func:`batch_drive` is the columnar twin of :func:`repro.streams.drive`:
it runs a set of stream consumers over a :class:`PackedTrace`, using a
specialised kernel per consumer type where one exists and falling back
to a single shared object-decoding pass for everything else.  Kernels
write their results **into the consumers' existing state** (power-model
inputs and totals, evaluator counters, collector rows), so ``totals()``,
telemetry collectors, and every downstream aggregation work unchanged —
the object path remains the reference oracle and the parity tests in
``tests/batch`` hold the two bit-identical.

The per-op work runs as NumPy array operations over zero-copy
``np.frombuffer`` views of the existing
:class:`~repro.batch.columns.PackedColumns` (``array``/``memoryview``
storage, so the object path keeps working on the very same trace):

* **Selection** (the evaluators' speculative filter, then the clamp to
  the module count) becomes a rank-within-group computation from the
  offsets column: a cumulative sum of the non-speculative mask gives
  each op's rank among its group's survivors, and ``rank < num_modules``
  is the clamp.
* **Accounting** is shared by every array kernel: once per-op module
  choices exist, a stable argsort by module turns the stream into
  contiguous per-module runs *in stream order*; the "previous operands"
  of each op are then just the shifted run (seeded from the power
  model's latched state at run starts), so every XOR/popcount happens
  in one shot and per-module totals come from ``np.add.reduceat``.
  Popcounts go through :data:`POPCOUNT16` viewed as a NumPy table over
  the ``uint16`` lanes of each 64-bit word.
* **LUT steering** (the ``lut`` family and the BDD-derived ``bdd``
  tables alike) packs each group's (length, leading cases) into a
  collision-free integer key, calls ``LUTPolicy._assign_cases`` once per
  *unique* key (``np.unique``), and expands module choices with one 2-D
  gather.
* **1-bit Hamming** packs each group's (case, swappable) codes into a
  per-group opkey column; the decision layer — a dict memoised on
  (opkey, module info-bit state) around :func:`_one_bit_decide` — stays
  a Python loop because each group's decision feeds the next group's
  key, but it touches one int per *group* (not per op) and expansion
  back to ops is columnar.
* **Full Hamming** is the one scalar fused loop: its exact cost matrix
  reads the full-width latched images the previous group's assignment
  just wrote, so the groups are sequentially dependent by construction
  and there is no whole-column formulation.  Per-module state lives in
  local lists, popcounts use the native ``int.bit_count`` (or
  :data:`POPCOUNT16` before 3.10), and the matcher (:func:`_match`)
  takes the row minima when they name distinct modules and otherwise
  scans memoised permutations.

**Fault views** are a kernel input, not a reason to take the object
path: an evaluator with a plain
:class:`~repro.runner.faults.FaultInjector` draws its view once per
run through ``corrupt_columns`` over its selected, pre-swapped ops in
stream order, the draws ``corrupt_view`` makes group by group.  Like
``PolicyEvaluator._account_ops``, each kernel decides from the view
and charges the true operands: the positional kernels only advance
the injector, LUT keys come from the view's cases, the 1-bit matcher
decides on the view's cases while its modules latch the true ones, and
the full-width matrix is built from view images while true-image costs
are charged.  Ops no upset touched keep their packed case and cost,
and an unfaulted evaluator does no fault work at all.

Semantics replicated exactly (see the evaluator/collector sources):
the clamp-to-module-count *after* the speculative filter for deferred
evaluators, first-best tie-breaking in the brute-force matcher (via
:func:`repro.core.assignment.solve` itself), the round-robin rotation
advancing once per non-empty group, and the LUT spare-module remapping
(shared with the object path through ``LUTPolicy._assign_cases``).
All arithmetic is integer-exact (int64/uint64 sums, never float).
"""

from __future__ import annotations

import itertools
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple)

import numpy as np

from ..core.assignment import _BRUTE_FORCE_LIMIT, solve as _solve
from ..core.power import FUPowerModel
from ..core.registry import REGISTRY
from ..core.steering import LUTPolicy, OneBitHammingPolicy, PolicyEvaluator
from ..core.swapping import HardwareSwapper
from ..isa.encoding import bit_count as _native_bit_count
from ..streams import PackedSource

if TYPE_CHECKING:  # runtime-lazy: analysis itself imports this package
    from ..analysis.bit_patterns import BitPatternCollector
    from ..analysis.module_usage import ModuleUsageCollector
from .columns import (F_HAS_TWO, F_HW_SWAP, F_SPEC, NUMPY_DTYPES,
                      PackedColumns, PackedTrace, SWAPPED_CASE)

#: popcount of every 16-bit value; the array kernels index it lane by
#: lane, while on 3.10+ ``int.bit_count`` beats the double lookup, so
#: the scalar kernel takes whichever is faster for the interpreter.
#: Entry ``hi * 256 + lo`` is popcount(hi) + popcount(lo), built from a
#: 256-entry byte table (a 65,536-step Python loop cost every import
#: about 28 ms).
_POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                      axis=1).sum(axis=1, dtype=np.uint8)
POPCOUNT16 = (_POP8[:, None] + _POP8).tobytes()

#: POPCOUNT16 as an indexable ndarray (zero-copy view of the bytes)
_POP16 = np.frombuffer(POPCOUNT16, dtype=np.uint8)
_SWAPPED_CASE_NP = np.array(SWAPPED_CASE, dtype=np.uint8)

#: widest machine the packed 1-bit-Hamming opkey fits in one int64
#: (3 bits per op, up to num_modules ops per group)
_ONE_BIT_MAX_MODULES = 16


def _table_bit_count(value: int, _table=POPCOUNT16) -> int:
    """Popcount via :data:`POPCOUNT16` (for up to 64-bit masked images)."""
    return (_table[value & 0xFFFF] + _table[(value >> 16) & 0xFFFF]
            + _table[(value >> 32) & 0xFFFF] + _table[(value >> 48) & 0xFFFF])


def _pick_bit_count() -> Callable[[int], int]:
    if hasattr(int, "bit_count"):  # 3.10+: a single C call wins
        return _native_bit_count
    return _table_bit_count


_bit_count = _pick_bit_count()


def popcount64(values) -> np.ndarray:
    """Vectorized popcount of a uint64 array via :data:`POPCOUNT16`.

    Views each 64-bit word as four 16-bit lanes and sums the table
    lookups — the array twin of ``_table_bit_count``, checked against
    the same oracle in ``tests/batch/test_popcount.py``.
    """
    words = np.ascontiguousarray(values, dtype=np.uint64)
    lanes = _POP16[words.view(np.uint16)].reshape(-1, 4)
    # four strided adds beat reduce-along-axis by ~2x at these widths
    out = lanes[:, 0].astype(np.int64)
    out += lanes[:, 1]
    out += lanes[:, 2]
    out += lanes[:, 3]
    return out


# ----- shared kernel state ----------------------------------------------------


class _EvalContext:
    """Shared per-evaluator kernel state: hoisted power-model locals,
    pre-swap configuration, and telemetry accumulators."""

    __slots__ = ("ev", "cols", "power", "nm", "mask", "prev1", "prev2",
                 "track", "track_ops", "swapper", "swap_case", "telemetry",
                 "tcounts", "total_bits", "total_ops", "cycles_seen",
                 "router_swaps", "pre_swaps")

    def __init__(self, ev: PolicyEvaluator, cols: PackedColumns):
        self.ev = ev
        self.cols = cols
        power = self.power = ev.power
        self.nm = power.num_modules
        self.mask = power._mask
        self.prev1 = [pair[0] for pair in power._inputs]
        self.prev2 = [pair[1] for pair in power._inputs]
        self.track = power.module_switched_bits
        self.track_ops = power.module_operations
        self.swapper = ev.pre_swapper
        self.swap_case = (self.swapper.swap_from_case
                          if self.swapper is not None else -1)
        self.telemetry = ev.telemetry is not None
        self.tcounts = [0, 0, 0, 0]
        self.total_bits = 0
        self.total_ops = 0
        self.cycles_seen = 0
        self.router_swaps = 0
        self.pre_swaps = 0

    def flush(self) -> None:
        """Write the kernel's accumulators back into the evaluator."""
        ev = self.ev
        power = self.power
        power._inputs = list(zip(self.prev1, self.prev2))
        power.switched_bits += self.total_bits
        power.operations += self.total_ops
        ev.cycles_seen += self.cycles_seen
        if self.swapper is not None:
            self.swapper.swaps_performed += self.pre_swaps
        if self.telemetry:
            counts = ev._case_counts
            for case in range(4):
                counts[case] += self.tcounts[case]
            ev._ops_seen += self.total_ops
            ev._swaps_seen += self.router_swaps


# ----- columnar machinery -----------------------------------------------------


def _view(cols: PackedColumns, name: str, typecode: str) -> np.ndarray:
    """Zero-copy ndarray view over one column (array.array or mmap)."""
    return np.frombuffer(cols.column(name), dtype=NUMPY_DTYPES[typecode])


def _op_views(cols: PackedColumns):
    return (_view(cols, "op1", "Q"), _view(cols, "op2", "Q"),
            _view(cols, "flags", "B"), _view(cols, "case", "B"))


def _offsets_view(cols: PackedColumns) -> np.ndarray:
    return _view(cols, "offsets", "I").astype(np.int64)


class _Selected:
    """Columnar result of the evaluators' filter/clamp: which ops each
    evaluator accounts, and where their (post-filter) groups start."""

    __slots__ = ("idx", "rank", "starts", "n_of", "jop", "cycles")

    def __init__(self, idx, rank, starts, n_of, jop, cycles):
        self.idx = idx          # selected op indices, stream order
        self.rank = rank        # rank of each selected op in its group
        self.starts = starts    # index into idx where each group starts
        self.n_of = n_of        # ops per (non-empty) selected group
        self.jop = jop          # selected-group ordinal per selected op
        self.cycles = cycles    # number of non-empty selected groups


def _select(offsets: np.ndarray, flags: np.ndarray,
            num_modules: int, exclude_spec: bool) -> Optional[_Selected]:
    """Vectorized :func:`_select_groups`: spec-filter *then* clamp,
    exactly the deferred evaluators' ``_account_ops`` order."""
    n_groups = len(offsets) - 1
    n_ops = int(offsets[-1]) if n_groups > 0 else 0
    if n_ops == 0:
        return None
    sizes = np.diff(offsets)
    group_start = np.repeat(offsets[:-1], sizes)
    if exclude_spec:
        keep = (flags & F_SPEC) == 0
        before = np.cumsum(keep, dtype=np.int64) - keep
        rank = before - before[group_start]
        sel_mask = keep & (rank < num_modules)
    else:
        rank = np.arange(n_ops, dtype=np.int64) - group_start
        sel_mask = rank < num_modules
    idx = np.flatnonzero(sel_mask)
    if idx.size == 0:
        return None
    gid_sel = group_start[idx]  # any per-group-constant works as a group id
    starts = np.flatnonzero(np.r_[True, gid_sel[1:] != gid_sel[:-1]])
    n_of = np.diff(np.r_[starts, idx.size])
    jop = np.repeat(np.arange(starts.size, dtype=np.int64), n_of)
    return _Selected(idx, rank[idx], starts, n_of, jop, int(starts.size))


def _pre_swap(ctx: _EvalContext, sel: _Selected, op1v, op2v, flagsv, casev):
    """Apply the case-triggered pre-swap columnar; returns the effective
    operands/cases plus the raw pre-swap mask (1-bit-ham needs it)."""
    idx = sel.idx
    o1 = op1v[idx]
    o2 = op2v[idx]
    case = casev[idx]
    if ctx.swapper is None:
        return o1, o2, case, None
    pre = ((flagsv[idx] & F_HW_SWAP) != 0) & (case == ctx.swap_case)
    if pre.any():
        o1, o2 = np.where(pre, o2, o1), np.where(pre, o1, o2)
        case = np.where(pre, _SWAPPED_CASE_NP[case], case)
    ctx.pre_swaps = int(pre.sum())
    return o1, o2, case, pre


def _fault_view(ctx: _EvalContext, sel: _Selected, flagsv, o1, o2):
    """Draw the faulted policy's view of the selected, pre-swapped
    operands through ``FaultInjector.corrupt_columns``, in stream order
    as ``_account_ops`` draws through ``corrupt_view`` group by group.

    Returns ``(hit, view1, view2)``: the positions, within the
    selection, of the ops an upset changed and their view images; or
    ``None`` when nothing can flip (no injector, rate 0, filtered FU
    class).
    """
    injector = ctx.ev.fault_injector
    if injector is None:
        return None
    has_two = (flagsv[sel.idx] & F_HAS_TWO) != 0
    v1, v2 = injector.corrupt_columns(o1, o2, has_two, ctx.cols.fu_class)
    if v1 is o1:
        return None
    hit = np.flatnonzero((v1 != o1) | (v2 != o2))
    return hit, v1[hit], v2[hit]


def _view_cases(ctx: _EvalContext, sel: _Selected, flagsv, o1, o2, case):
    """Info-bit cases of the faulted view (``case`` itself when no
    upset landed): every op an upset changed is re-cased under the pack
    scheme, the rest keep their packed case."""
    view = _fault_view(ctx, sel, flagsv, o1, o2)
    if view is None or not view[0].size:
        return case
    hit, v1, v2 = view
    case = case.copy()
    scheme = ctx.cols.scheme
    case_fn = scheme.pair_case or scheme.case_of
    two = (flagsv[sel.idx[hit]] & F_HAS_TWO) != 0
    for pos, a, b, has_two in zip(hit.tolist(), v1.tolist(), v2.tolist(),
                                  two.tolist()):
        case[pos] = case_fn(a, b if has_two else 0)
    return case


def _accumulate(ctx: _EvalContext, o1, o2, module, case) -> None:
    """Charge selected ops to their modules, all columns at once.

    A stable sort by module yields per-module contiguous runs in stream
    order; each op's previous operands are then the run shifted by one,
    seeded from the latched power-model state at run starts.  Totals,
    per-module tracking, telemetry case counts and the final latched
    state all come out of the sorted arrays with integer-exact sums.
    """
    order = np.argsort(module, kind="stable")
    m_sorted = module[order]
    s1 = o1[order]
    s2 = o2[order]
    run_starts = np.flatnonzero(np.r_[True, m_sorted[1:] != m_sorted[:-1]])
    run_modules = m_sorted[run_starts]
    init1 = np.array(ctx.prev1, dtype=np.uint64)
    init2 = np.array(ctx.prev2, dtype=np.uint64)
    p1 = np.empty_like(s1)
    p2 = np.empty_like(s2)
    p1[1:] = s1[:-1]
    p2[1:] = s2[:-1]
    p1[run_starts] = init1[run_modules]
    p2[run_starts] = init2[run_modules]
    mask = np.uint64(ctx.mask)
    bits = popcount64((s1 ^ p1) & mask) + popcount64((s2 ^ p2) & mask)
    ctx.total_bits += int(bits.sum())
    ctx.total_ops += int(module.size)
    run_ends = np.r_[run_starts[1:], m_sorted.size] - 1
    last1 = s1[run_ends]
    last2 = s2[run_ends]
    track, track_ops = ctx.track, ctx.track_ops
    if track is not None:
        run_bits = np.add.reduceat(bits, run_starts)
        run_lens = np.diff(np.r_[run_starts, m_sorted.size])
    prev1, prev2 = ctx.prev1, ctx.prev2
    for r in range(run_modules.size):  # one iteration per *module*, not op
        m = int(run_modules[r])
        prev1[m] = int(last1[r])
        prev2[m] = int(last2[r])
        if track is not None:
            track[m] += int(run_bits[r])
            track_ops[m] += int(run_lens[r])
    if ctx.telemetry:
        counts = np.bincount(case, minlength=4)
        tcounts = ctx.tcounts
        for c in range(4):
            tcounts[c] += int(counts[c])


# ----- array evaluator kernels ------------------------------------------------


def _np_run_positional(ev: PolicyEvaluator, cols: PackedColumns,
                       round_robin: bool) -> None:
    """Original (op k -> module k) and round-robin steering."""
    ctx = _EvalContext(ev, cols)
    op1v, op2v, flagsv, casev = _op_views(cols)
    sel = _select(_offsets_view(cols), flagsv, ctx.nm,
                  not ev.include_speculative)
    if sel is None:
        ctx.flush()
        return
    ctx.cycles_seen = sel.cycles
    o1, o2, case, _ = _pre_swap(ctx, sel, op1v, op2v, flagsv, casev)
    # positional routing never reads operands, but a faulted evaluator's
    # injector still draws for every op it is shown
    _fault_view(ctx, sel, flagsv, o1, o2)
    if round_robin:
        rr0 = ev.policy._next
        # the rotation pointer at each group's start: the initial pointer
        # plus every preceding non-empty group's op count, like the
        # object policy advancing once per issued group
        taken_before = np.r_[0, np.cumsum(sel.n_of)[:-1]]
        module = (rr0 + taken_before[sel.jop] + sel.rank) % ctx.nm
        ev.policy._next = int((rr0 + int(sel.n_of.sum())) % ctx.nm)
    else:
        module = sel.rank
    _accumulate(ctx, o1, o2, module, case)
    ctx.flush()


def _np_run_lut(ev: PolicyEvaluator, cols: PackedColumns) -> None:
    """Table-driven LUT steering: one ``_assign_cases`` per unique
    (length, leading-cases) key, expanded with a single 2-D gather."""
    ctx = _EvalContext(ev, cols)
    policy: LUTPolicy = ev.policy
    nm = ctx.nm
    op1v, op2v, flagsv, casev = _op_views(cols)
    sel = _select(_offsets_view(cols), flagsv, nm, not ev.include_speculative)
    if sel is None:
        ctx.flush()
        return
    ctx.cycles_seen = sel.cycles
    o1, o2, case, _ = _pre_swap(ctx, sel, op1v, op2v, flagsv, casev)
    # the table steers on the (possibly faulted) view's cases; the true
    # operands and cases are charged
    vcase = _view_cases(ctx, sel, flagsv, o1, o2, case)
    vo = policy._vector_ops
    # a collision-free key, column-wise: length in the high bits, then
    # the first min(length, vector_ops) cases big-endian
    t = np.minimum(sel.n_of, vo)
    t_op = t[sel.jop]
    shift = np.maximum(2 * (t_op - 1 - sel.rank), 0)
    contrib = np.where(sel.rank < t_op, vcase.astype(np.int64) << shift, 0)
    key = (sel.n_of << (2 * t)) | np.add.reduceat(contrib, sel.starts)
    uniq, first, inverse = np.unique(key, return_index=True,
                                     return_inverse=True)
    table = np.zeros((uniq.size, nm), dtype=np.int64)
    for u in range(uniq.size):  # one policy call per unique key
        j = int(first[u])
        start = int(sel.starts[j])
        n = int(sel.n_of[j])
        cases = tuple(int(c) for c in vcase[start:start + min(n, vo)])
        modules = policy._assign_cases(cases, n, nm).modules
        table[u, :len(modules)] = modules
    module = table[inverse[sel.jop], sel.rank]
    _accumulate(ctx, o1, o2, module, case)
    ctx.flush()


def _match(costs: List[List[int]], n: int, nm: int,
           perms_by_n: Dict[int, List[Tuple[int, ...]]]
           ) -> Tuple[int, ...]:
    """Minimum-cost injective matching with the exact tie-breaking of
    :func:`repro.core.assignment.solve`: the lexicographically smallest
    minimum-total module tuple.

    When every row's first minimum names a different module, those
    modules are the answer at any module count: they reach the lower
    bound (the sum of the row minima), and any other optimum first
    differs in a row where it takes a later equal minimum.  Otherwise,
    in the brute-force regime (``nm <= 6``, like ``solve``), up to four
    ops take the first minimum of one flat list of totals over the
    permutations in lex order, and more ops the lex-order strict-< scan
    with monotone partial-sum pruning — pruning cannot change the
    winner (costs are non-negative integers).  Wider machines delegate
    to ``solve`` itself, whose Kuhn-Munkres returns the same tuple.
    """
    firsts = tuple([row.index(min(row)) for row in costs])
    if len(set(firsts)) == n:
        return firsts
    if nm > _BRUTE_FORCE_LIMIT:
        return _solve(costs)[0]
    perms = perms_by_n.get(n)
    if perms is None:
        perms = list(itertools.permutations(range(nm), n))
        perms_by_n[n] = perms
    if n == 2:
        r0, r1 = costs
        totals = [r0[a] + r1[b] for a, b in perms]
    elif n == 3:
        r0, r1, r2 = costs
        totals = [r0[a] + r1[b] + r2[c] for a, b, c in perms]
    elif n == 4:
        r0, r1, r2, r3 = costs
        totals = [r0[a] + r1[b] + r2[c] + r3[d] for a, b, c, d in perms]
    else:
        best_perm = perms[0]
        best_total = 0
        for k in range(n):
            best_total += costs[k][best_perm[k]]
        for index in range(1, len(perms)):
            perm = perms[index]
            total = 0
            for k in range(n):
                total += costs[k][perm[k]]
                if total >= best_total:
                    break
            else:
                best_total = total
                best_perm = perm
        return best_perm
    return perms[totals.index(min(totals))]


def _one_bit_decide(gc: Sequence[int], gsw: Sequence[bool],
                    pb1: int, pb2: int, nm: int, modrange,
                    perms_by_n: Dict[int, List[Tuple[int, ...]]],
                    latched: Sequence[int]
                    ) -> Tuple[Tuple[int, ...], Tuple[bool, ...], int, int]:
    """One 1-bit-Hamming group decision from the memo-miss path.

    Given the group's (post-pre-swap) cases as the matcher sees them,
    per-op swappability, and the packed per-module info-bit state,
    build the 1-bit cost matrix, match, and recover the router swaps
    exactly as ``cost_matrix`` chose them.  The next state comes from
    ``latched``, the true cases the chosen modules latch (the same as
    ``gc`` unless a fault view corrupted it).  Returns ``(modules,
    chosen_swaps, next_pb1, next_pb2)``.
    """
    n = len(gc)
    costs: List[List[int]] = []
    for k in range(n):
        case = gc[k]
        b1 = (case >> 1) & 1
        b2 = case & 1
        row = []
        for m in modrange:
            p1 = (pb1 >> m) & 1
            p2 = (pb2 >> m) & 1
            direct = abs(b1 - p1) + abs(b2 - p2)
            if gsw[k]:
                exchanged = abs(b2 - p1) + abs(b1 - p2)
                if exchanged < direct:
                    row.append(exchanged)
                    continue
            row.append(direct)
        costs.append(row)
    modules = _match(costs, n, nm, perms_by_n)
    chosen_swaps = []
    next_pb1 = pb1
    next_pb2 = pb2
    for k in range(n):
        module = modules[k]
        case = gc[k]
        b1 = (case >> 1) & 1
        b2 = case & 1
        swap = False
        if gsw[k]:
            # against the group-start state, like the matrix
            p1 = (pb1 >> module) & 1
            p2 = (pb2 >> module) & 1
            # the matrix keeps only the best cost per cell; recover the
            # swap exactly as cost_matrix chose it
            swap = (abs(b2 - p1) + abs(b1 - p2)
                    < abs(b1 - p1) + abs(b2 - p2))
        chosen_swaps.append(swap)
        bit = 1 << module
        true = latched[k]
        b1 = (true >> 1) & 1
        b2 = true & 1
        new1, new2 = (b2, b1) if swap else (b1, b2)
        next_pb1 = (next_pb1 & ~bit) | (new1 << module)
        next_pb2 = (next_pb2 & ~bit) | (new2 << module)
    return modules, tuple(chosen_swaps), next_pb1, next_pb2


def _np_run_one_bit_hamming(ev: PolicyEvaluator, cols: PackedColumns) -> None:
    """1-bit Hamming matcher: columnar opkeys, memoised decisions.

    The matcher's entire decision — module choice and router swaps — is
    a function of each op's (case, swappable) and each module's previous
    information-bit pair, so it is memoised on packed-int keys.  The
    per-group decision chain (each group's assignment updates the module
    info-bit state the next group's key depends on) runs as a Python
    loop over *groups*; everything per-op — key packing, module and
    router-swap expansion, operand selection, full-width accounting
    against the raw latched images — is columnar.
    """
    ctx = _EvalContext(ev, cols)
    policy: OneBitHammingPolicy = ev.policy
    allow_swap = policy.allow_swap
    nm = ctx.nm
    op1v, op2v, flagsv, casev = _op_views(cols)
    sel = _select(_offsets_view(cols), flagsv, nm, not ev.include_speculative)
    if sel is None:
        ctx.flush()
        return
    ctx.cycles_seen = sel.cycles
    idx = sel.idx
    raw_case = casev[idx]
    hw = (flagsv[idx] & F_HW_SWAP) != 0
    if ctx.swapper is not None:
        pre = hw & (raw_case == ctx.swap_case)
        case = np.where(pre, _SWAPPED_CASE_NP[raw_case], raw_case)
        ctx.pre_swaps = int(pre.sum())
    else:
        pre = np.zeros(idx.size, dtype=bool)
        case = raw_case
    vcase = case
    if ev.fault_injector is not None:
        ro1 = op1v[idx]
        ro2 = op2v[idx]
        vcase = _view_cases(ctx, sel, flagsv, np.where(pre, ro2, ro1),
                            np.where(pre, ro1, ro2), case)
    swappable = hw if allow_swap else np.zeros(idx.size, dtype=bool)
    # 3 bits per op, packed big-endian per group
    place = 3 * (sel.n_of[sel.jop] - 1 - sel.rank)
    field = (vcase.astype(np.int64) << 1) | swappable
    opkeys_l = np.add.reduceat(field << place, sel.starts).tolist()
    case_l = case.tolist()
    vcase_l = case_l
    if vcase is not case:
        # the matcher decides on the view, the modules latch the truth:
        # the memo keys on both groups of cases
        vcase_l = vcase.tolist()
        true_keys = np.add.reduceat(case.astype(np.int64) << place,
                                    sel.starts).tolist()
        opkeys_l = [(key << (3 * nm)) | true
                    for key, true in zip(opkeys_l, true_keys)]

    extract = policy.scheme.extract
    pb1 = 0  # bit m = info bit of module m's latched first operand
    pb2 = 0
    for m in range(nm):
        pb1 |= extract(ctx.prev1[m]) << m
        pb2 |= extract(ctx.prev2[m]) << m
    n_l = sel.n_of.tolist()
    starts_l = sel.starts.tolist()
    sw_l = swappable.tolist()
    modrange = range(nm)
    perms_by_n: Dict[int, List[Tuple[int, ...]]] = {}
    decisions: Dict[int, Tuple[int, int, int]] = {}
    dec_modules: List[Tuple[int, ...]] = []
    dec_swaps: List[Tuple[bool, ...]] = []
    dec_ids = np.empty(len(n_l), dtype=np.int64)
    for j in range(len(n_l)):
        n = n_l[j]
        key = ((((opkeys_l[j] << nm) | pb1) << nm) | pb2) << 6 | n
        hit = decisions.get(key)
        if hit is None:
            start = starts_l[j]
            seen = vcase_l[start:start + n]
            modules, chosen, npb1, npb2 = _one_bit_decide(
                seen, sw_l[start:start + n], pb1, pb2, nm, modrange,
                perms_by_n, seen if vcase_l is case_l
                else case_l[start:start + n])
            hit = (len(dec_modules), npb1, npb2)
            dec_modules.append(modules)
            dec_swaps.append(chosen)
            decisions[key] = hit
        dec_id, pb1, pb2 = hit
        dec_ids[j] = dec_id

    mtab = np.zeros((len(dec_modules), nm), dtype=np.int64)
    stab = np.zeros((len(dec_modules), nm), dtype=bool)
    for d in range(len(dec_modules)):
        modules = dec_modules[d]
        mtab[d, :len(modules)] = modules
        stab[d, :len(modules)] = dec_swaps[d]
    dec_op = dec_ids[sel.jop]
    module = mtab[dec_op, sel.rank]
    chosen = stab[dec_op, sel.rank]
    ctx.router_swaps = int(chosen.sum())
    # a pre-swap exchanged the operands before the matcher; a router
    # swap exchanges them again — the net order is raw when both (or
    # neither) fired
    ro1 = op1v[idx]
    ro2 = op2v[idx]
    eff = chosen != pre
    o1 = np.where(eff, ro2, ro1)
    o2 = np.where(eff, ro1, ro2)
    _accumulate(ctx, o1, o2, module, case)
    ctx.flush()


# ----- the scalar full-Hamming kernel -----------------------------------------


def _select_groups(cols: PackedColumns, num_modules: int,
                   exclude_spec: bool):
    """Yield per-group index lists after the evaluator's filter/clamp.

    Inclusive evaluators clamp the raw group to ``num_modules``;
    deferred (wrong-path-excluding) evaluators filter speculative ops
    *first*, then clamp — exactly ``_account_ops``'s order.  Groups
    with nothing left are skipped entirely (``cycles_seen`` untouched).
    """
    offsets = cols.offsets
    flags = cols.flags
    for g in range(cols.n_groups):
        start = offsets[g]
        end = offsets[g + 1]
        if start == end:
            continue
        if exclude_spec:
            sel = [i for i in range(start, end) if not (flags[i] & F_SPEC)]
            if not sel:
                continue
            if len(sel) > num_modules:
                del sel[num_modules:]
            yield sel
        else:
            if end - start > num_modules:
                end = start + num_modules
            yield range(start, end)


def _full_ham_views(ctx: _EvalContext) -> Dict[int, Tuple[int, int]]:
    """The faulted view for the full-Hamming kernel: ``{op index: (view
    op1, view op2)}`` after the pre-swap, for every op an upset changed
    (empty for an unfaulted evaluator)."""
    ev, cols = ctx.ev, ctx.cols
    if ev.fault_injector is None:
        return {}
    op1v, op2v, flagsv, casev = _op_views(cols)
    sel = _select(_offsets_view(cols), flagsv, ctx.nm,
                  not ev.include_speculative)
    if sel is None:
        return {}
    o1, o2, _, _ = _pre_swap(ctx, sel, op1v, op2v, flagsv, casev)
    view = _fault_view(ctx, sel, flagsv, o1, o2)
    if view is None:
        return {}
    hit, v1, v2 = view
    return dict(zip(sel.idx[hit].tolist(), zip(v1.tolist(), v2.tolist())))


def _view_rows(ctx: _EvalContext, views: Dict[int, Tuple[int, int]], sel,
               g1, g2, costs, swaps, allow_swap: bool):
    """Full-Hamming rows of one group under a faulted view.

    The row of every op an upset touched is rebuilt from its view
    images, against the group-start latched state, and the matcher
    decides on it, while ``charge[k][m]`` is what module ``m`` really
    switches for op ``k`` under the view's swap choice.  Returns
    ``(costs, swaps, charge)``: the inputs themselves for a group no
    upset touched.
    """
    hits = [(k, i) for k, i in enumerate(sel) if i in views]
    if not hits:
        return costs, swaps, costs
    bc = _bit_count
    prev1, prev2, mask = ctx.prev1, ctx.prev2, ctx.mask
    flags = ctx.cols.flags
    costs = list(costs)
    charge = list(costs)
    swaps = list(swaps)
    for k, i in hits:
        v1, v2 = views[i]
        t1, t2 = g1[k], g2[k]
        swappable = allow_swap and bool(flags[i] & F_HW_SWAP)
        row, true_row = [], []
        row_swaps: Optional[List[bool]] = [] if swappable else None
        for m in range(ctx.nm):
            p1 = prev1[m]
            p2 = prev2[m]
            cost = bc((v1 ^ p1) & mask) + bc((v2 ^ p2) & mask)
            true_cost = bc((t1 ^ p1) & mask) + bc((t2 ^ p2) & mask)
            if swappable:
                exchanged = bc((v2 ^ p1) & mask) + bc((v1 ^ p2) & mask)
                swap = exchanged < cost
                if swap:
                    cost = exchanged
                    true_cost = bc((t2 ^ p1) & mask) + bc((t1 ^ p2) & mask)
                row_swaps.append(swap)
            row.append(cost)
            true_row.append(true_cost)
        costs[k] = row
        swaps[k] = row_swaps
        charge[k] = true_row
    return costs, swaps, charge


def _run_full_hamming(ev: PolicyEvaluator, cols: PackedColumns) -> None:
    """Full-width Hamming matcher: cost matrix from kernel locals.

    Under a fault view the matrix is built from the view images and the
    true images are charged (see :func:`_view_rows`).
    """
    ctx = _EvalContext(ev, cols)
    views = _full_ham_views(ctx)
    allow_swap = ev.policy.allow_swap
    nm = ctx.nm
    mask = ctx.mask
    bc = _bit_count
    prev1, prev2 = ctx.prev1, ctx.prev2
    track, track_ops = ctx.track, ctx.track_ops
    op1c, op2c = cols.op1, cols.op2
    flagsc, casec = cols.flags, cols.case
    swapping = ctx.swapper is not None
    swap_case = ctx.swap_case
    swc = SWAPPED_CASE
    tel = ctx.telemetry
    tcounts = ctx.tcounts
    modrange = range(nm)
    perms_by_n: Dict[int, List[Tuple[int, ...]]] = {}
    total_bits = 0
    total_ops = 0
    pre_swaps = 0
    router_swaps = 0

    for sel in _select_groups(cols, nm, not ev.include_speculative):
        ctx.cycles_seen += 1
        g1: List[int] = []
        g2: List[int] = []
        gc: List[int] = []
        costs: List[List[int]] = []
        swaps: List[Optional[List[bool]]] = []
        for i in sel:
            o1 = op1c[i]
            o2 = op2c[i]
            case = casec[i]
            fl = flagsc[i]
            if swapping and (fl & F_HW_SWAP) and case == swap_case:
                o1, o2 = o2, o1
                case = swc[case]
                pre_swaps += 1
            g1.append(o1)
            g2.append(o2)
            gc.append(case)
            if allow_swap and (fl & F_HW_SWAP):
                row = []
                row_swaps = []
                for m in modrange:
                    p1 = prev1[m]
                    p2 = prev2[m]
                    direct = bc((o1 ^ p1) & mask) + bc((o2 ^ p2) & mask)
                    exchanged = bc((o2 ^ p1) & mask) + bc((o1 ^ p2) & mask)
                    if exchanged < direct:
                        row.append(exchanged)
                        row_swaps.append(True)
                    else:
                        row.append(direct)
                        row_swaps.append(False)
                swaps.append(row_swaps)
            else:
                row = [bc((o1 ^ prev1[m]) & mask) + bc((o2 ^ prev2[m]) & mask)
                       for m in modrange]
                swaps.append(None)
            costs.append(row)
        n = len(g1)
        charge = costs
        if views:
            costs, swaps, charge = _view_rows(ctx, views, sel, g1, g2,
                                              costs, swaps, allow_swap)
        modules = _match(costs, n, nm, perms_by_n)
        for k in range(n):
            module = modules[k]
            row_swaps = swaps[k]
            if row_swaps is not None and row_swaps[module]:
                o1 = g2[k]
                o2 = g1[k]
                router_swaps += 1
            else:
                o1 = g1[k]
                o2 = g2[k]
            cost = charge[k][module]
            prev1[module] = o1
            prev2[module] = o2
            total_bits += cost
            if track is not None:
                track[module] += cost
                track_ops[module] += 1
            if tel:
                tcounts[gc[k]] += 1
        total_ops += n

    ctx.total_bits = total_bits
    ctx.total_ops = total_ops
    ctx.pre_swaps = pre_swaps
    ctx.router_swaps = router_swaps
    ctx.flush()


# ----- evaluator dispatch -----------------------------------------------------

#: sentinel from the eligibility gate: the consumer is kernel-eligible
#: but the packed trace holds nothing of its FU class (a no-op run)
_EMPTY = object()


def _evaluator_cols(ev: PolicyEvaluator, packed: PackedTrace):
    """Eligibility gate for evaluators.

    Returns the :class:`PackedColumns` to run over, :data:`_EMPTY` when
    the trace holds nothing of the evaluator's FU class, or ``None``
    when its configuration needs the object path (tracers, subclassed
    evaluators, fault injectors or power models, custom schemes or
    swappers).  A plain :class:`~repro.runner.faults.FaultInjector` is
    a kernel input: every kernel draws its columnar view.
    """
    if type(ev) is not PolicyEvaluator:
        return None
    injector = ev.fault_injector
    if injector is not None:
        # lazy: repro.runner pulls in the campaign fabric
        from ..runner.faults import FaultInjector
        if type(injector) is not FaultInjector:
            return None  # a subclass may draw or corrupt differently
    if ev.telemetry is not None and ev._trace is not None:
        return None  # tracer wants per-cycle module events
    if type(ev.power) is not FUPowerModel:
        return None
    cols = packed.classes.get(ev.fu_class)
    if cols is None:
        return _EMPTY  # nothing of this class in the stream
    if ev.power._mask != cols.mask:
        return None
    if ev.telemetry is not None and ev.scheme is not cols.scheme:
        return None  # counted cases would need a different scheme
    swapper = ev.pre_swapper
    if swapper is not None and (type(swapper) is not HardwareSwapper
                                or swapper.scheme is not cols.scheme):
        return None
    return cols


def _evaluator_kernel(ev: PolicyEvaluator,
                      packed: PackedTrace) -> Optional[Callable[[], None]]:
    """Resolve the fused kernel for one evaluator, or ``None`` when its
    configuration needs the object path (see :func:`_evaluator_cols`).

    Kernel selection consults the policy registry: the policy's family
    (matched by exact type, so subclasses fall through) names a factory
    registered under ``"np"``, and the factory may still decline (scheme
    mismatch, unsupported shape) — both roads lead to the object path,
    never to a wrong kernel.
    """
    cols = _evaluator_cols(ev, packed)
    if cols is None:
        return None
    if cols is _EMPTY:
        return lambda: None
    factory = REGISTRY.kernel_factory(ev.policy, "np")
    if factory is None:
        return None
    return factory(ev, cols)


# ----- kernel registrations ---------------------------------------------------
# Factories take (evaluator, columns) after the shared eligibility gate
# and return a runner or None to decline; each family's guards live
# with its factory instead of in a central type chain.


def _np_original_kernel(ev, cols):
    return lambda: _np_run_positional(ev, cols, round_robin=False)


def _np_round_robin_kernel(ev, cols):
    return lambda: _np_run_positional(ev, cols, round_robin=True)


def _np_lut_kernel(ev, cols):
    if ev.policy.scheme is not cols.scheme:
        return None
    return lambda: _np_run_lut(ev, cols)


def _full_hamming_kernel(ev, cols):
    return lambda: _run_full_hamming(ev, cols)


def _np_one_bit_hamming_kernel(ev, cols):
    if ev.policy.scheme is not cols.scheme or not cols.conventional \
            or ev.power.num_modules > _ONE_BIT_MAX_MODULES:
        return None
    return lambda: _np_run_one_bit_hamming(ev, cols)


for _family, _factory in (("original", _np_original_kernel),
                          ("round-robin", _np_round_robin_kernel),
                          ("lut", _np_lut_kernel),
                          ("full-ham", _full_hamming_kernel),
                          ("1bit-ham", _np_one_bit_hamming_kernel)):
    REGISTRY.register_kernel(_family, "np", _factory)
del _family, _factory


# ----- statistics kernels -----------------------------------------------------


def _np_run_bit_patterns(collector: BitPatternCollector,
                         cols: PackedColumns) -> None:
    """Table 1 rows as bincounts over the case/popcount columns."""
    flags = _view(cols, "flags", "B")
    case = _view(cols, "case", "B")
    pop1 = _view(cols, "pop1", "B")
    pop2 = _view(cols, "pop2", "B")
    if not collector.include_speculative:
        keep = (flags & F_SPEC) == 0
        flags, case, pop1, pop2 = (flags[keep], case[keep],
                                   pop1[keep], pop2[keep])
    slot = (case.astype(np.int64) << 1) | ((flags >> 4) & 1)  # F_COMMUT
    counts = np.bincount(slot, minlength=8)
    for s in range(8):
        if not counts[s]:
            continue
        chosen = slot == s
        row = collector.rows[(s >> 1, bool(s & 1))]
        row.count += int(counts[s])
        row.ones_op1 += int(pop1[chosen].sum(dtype=np.int64))
        row.ones_op2 += int(pop2[chosen].sum(dtype=np.int64))
    collector.total_ops += int(slot.size)


def _bit_patterns_kernel(collector: BitPatternCollector, packed: PackedTrace
                         ) -> Optional[Callable[[], None]]:
    """Table 1 kernel, or ``None`` for the object path (subclass,
    scheme or mask mismatch)."""
    from ..analysis.bit_patterns import BitPatternCollector
    if type(collector) is not BitPatternCollector:
        return None
    cols = packed.classes.get(collector.fu_class)
    if cols is None:
        return lambda: None
    if collector.scheme is not cols.scheme or collector._mask != cols.mask:
        return None
    return lambda: _np_run_bit_patterns(collector, cols)


def _np_run_module_usage(collector: ModuleUsageCollector,
                         cols: PackedColumns) -> None:
    """Table 2 widths from one diff over the offsets column."""
    widths = np.diff(_offsets_view(cols))
    values, counts = np.unique(widths[widths > 0], return_counts=True)
    per_class = collector.counts.setdefault(cols.fu_class, {})
    get = per_class.get
    for width, count in zip(values.tolist(), counts.tolist()):
        per_class[width] = get(width, 0) + count


def _module_usage_kernel(collector: ModuleUsageCollector,
                         packed: PackedTrace) -> Optional[Callable[[], None]]:
    from ..analysis.module_usage import ModuleUsageCollector
    if type(collector) is not ModuleUsageCollector:
        return None

    def run() -> None:
        for fu_class, cols in packed.classes.items():
            if collector._filter is None or fu_class in collector._filter:
                _np_run_module_usage(collector, cols)

    return run


# ----- the drive loop ---------------------------------------------------------


def _kernel_for(consumer, packed: PackedTrace) -> Optional[Callable[[], None]]:
    from ..analysis.bit_patterns import BitPatternCollector
    from ..analysis.module_usage import ModuleUsageCollector
    if isinstance(consumer, PolicyEvaluator):
        return _evaluator_kernel(consumer, packed)
    if isinstance(consumer, BitPatternCollector):
        return _bit_patterns_kernel(consumer, packed)
    if isinstance(consumer, ModuleUsageCollector):
        return _module_usage_kernel(consumer, packed)
    return None


def batch_drive(packed: PackedTrace, consumers: Sequence,
                finalize: bool = True):
    """Run consumers over a packed trace: the columnar ``drive``.

    Consumers with a fused kernel are evaluated columnar; all others
    share one object pass, :class:`~repro.streams.PackedSource`'s pull
    loop (still decoding once, not once per consumer).  With
    ``finalize`` each consumer's ``finalize()`` hook is drained
    afterwards, exactly like :func:`repro.streams.drive`.  Returns the
    packed stream's run summary when known.
    """
    consumers = list(consumers)
    fallback = []
    for consumer in consumers:
        kernel = _kernel_for(consumer, packed)
        if kernel is None:
            fallback.append(consumer)
        else:
            kernel()
    if fallback:
        PackedSource(packed).drive(fallback)
    if finalize:
        for consumer in consumers:
            hook = getattr(consumer, "finalize", None)
            if hook is not None:
                hook()
    return packed.result
