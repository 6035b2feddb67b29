"""LUT synthesis for the lightweight steering approach (section 4.3).

The paper's router replaces Hamming-distance comparisons with a lookup
table: the information-bit cases of the first few operations issued
this cycle form a *vector* that addresses a LUT whose output is the
module assignment.  The LUT contents are fixed at design time from the
case-frequency statistics (Table 1) and the module-usage distribution
(Table 2).

Synthesis proceeds in two steps:

1. **Home allocation** — decide how many modules to reserve for each
   case.  The paper reasons informally (three IALU modules for case 00;
   one FPAU module per case because FP multi-issue is rare).  We make
   that reasoning exact: enumerate every allocation of modules to cases
   and pick the one minimising the *expected per-cycle mismatch cost*,
   where a scenario's cost is the optimal matching of its instruction
   cases onto module homes under the information-bit Hamming metric,
   and scenarios are weighted by the case and usage distributions.
   This reproduces the paper's two examples (verified in the tests).

2. **Table filling** — for every possible vector, store the optimal
   matching of the vector's cases onto the allocated homes.  Overflow
   (more instructions of a case than reserved modules) lands on the
   modules "likely to incur the smallest cost", exactly as the paper's
   greedy rule intends, except solved optimally.  Slot ``n``'s cost is
   weighted by the probability that ``n`` operations actually issue
   (``P(Num(I) >= n)`` from Table 2): at runtime, short cycles pad the
   trailing slots with the least frequent case, so trailing slots are
   usually padding and must not steal a real operation's home module.

Short vectors are padded with the least frequent case; pad slots'
module outputs are ignored when the assignment is applied.

Both steps search the same candidates (:func:`_placements`) with one
vectorised matcher (:func:`_first_minima`), which returns exactly the
brute force's matching in :mod:`repro.core.assignment`, ties included,
at any module count.  Step 1's matchings do not depend on the
statistics, so they are tabulated once per process
(:func:`_scenario_table`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import log2
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..isa.instructions import FUClass
from .info_bits import CASES, case_hamming
from .statistics import CaseStatistics

Vector = Tuple[int, ...]  # one case per vector slot


def _compositions(total: int, parts: int) -> Iterable[Tuple[int, ...]]:
    """All tuples of ``parts`` non-negative ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _homes_from_allocation(allocation: Sequence[int]) -> Tuple[int, ...]:
    """Expand an allocation (modules per case) into per-module homes."""
    homes: List[int] = []
    for case, count in zip(CASES, allocation):
        homes.extend([case] * count)
    return tuple(homes)


# _HAMMING[a, b] == case_hamming(CASES[a], CASES[b]); CASES[i] == i
_HAMMING = np.array([[case_hamming(a, b) for b in CASES] for a in CASES],
                    dtype=np.int8)
# scratch bytes one pass of the matcher or the search fills at once
_SCRATCH_BYTES = 1 << 17


@lru_cache(maxsize=None)
def _case_vectors(width: int) -> np.ndarray:
    """Every ``width``-slot case vector, one per row, in
    ``itertools.product(CASES, repeat=width)`` order."""
    vectors = np.indices((len(CASES),) * width).reshape(width, -1).T
    vectors.flags.writeable = False  # shared by every caller
    return vectors


def _first_minima(slot_costs: np.ndarray) -> np.ndarray:
    """The first cheapest candidate for every case vector.

    ``slot_costs[k, c, j]`` is the cost of a case-``c`` operation in
    slot ``k`` under candidate ``j``.  A vector's totals are added in
    slot order, as the brute force in :mod:`repro.core.assignment` adds
    them, and ``argmin`` keeps the first of equal totals: with
    candidates in lexicographic order, this is its tie rule.  Returns
    one candidate index per :func:`_case_vectors` row.
    """
    width, _, count = slot_costs.shape
    vectors = _case_vectors(width)
    best = np.empty(len(vectors), dtype=np.intp)
    step = max(1, _SCRATCH_BYTES // (count * slot_costs.itemsize))
    for start in range(0, len(vectors), step):
        rows = vectors[start:start + step]
        totals = slot_costs[0, rows[:, 0]]
        for slot in range(1, width):
            totals = totals + slot_costs[slot, rows[:, slot]]
        best[start:start + step] = totals.argmin(axis=1)
    return best


@lru_cache(maxsize=None)
def _allocations(num_modules: int) -> Tuple[Tuple[int, ...], ...]:
    return tuple(_compositions(num_modules, len(CASES)))


@lru_cache(maxsize=None)
def _arrangement_layout(width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Each :func:`_case_vectors` row read as the home every slot lands
    on: ``counts[j, c]`` is the number of its slots on home ``c``, and
    ``repeat[j, k]`` the number of its earlier slots on slot ``k``'s
    home."""
    arrangements = _case_vectors(width)
    counts = (arrangements[:, :, None] == np.arange(len(CASES))).sum(axis=1)
    same = arrangements[:, :, None] == arrangements[:, None, :]
    repeat = (same & np.tri(width, k=-1, dtype=bool)).sum(axis=2)
    counts.flags.writeable = repeat.flags.writeable = False  # shared
    return counts, repeat


def _placements(homes: Sequence[int],
                width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Every distinct way to place ``width`` slots on modules ``homes``.

    A slot's cost depends only on the home it lands on, and same-home
    modules are interchangeable, so the candidates are home-case
    *arrangements* within the homes' counts, each slot taking the
    lowest free module of its home.  The first cheapest of all module
    tuples is among them: moving a slot to its home's lowest free
    module keeps the cost and comes first.  Returns ``(slot_homes,
    modules)`` sorted by module tuple, the order the brute force meets
    them: ``slot_homes[k, j]`` is the home that slot ``k`` of placement
    ``j`` lands on, and ``modules[j]`` the placement's module tuple.
    """
    arrangements = _case_vectors(width)
    counts, repeat = _arrangement_layout(width)
    per_case = np.bincount(homes, minlength=len(CASES))
    feasible = np.flatnonzero((counts <= per_case).all(axis=1))
    # modules grouped by home, lowest first; group c starts at first[c]
    grouped = np.argsort(homes, kind="stable")
    first = np.cumsum(per_case) - per_case
    modules = grouped[first[arrangements[feasible]] + repeat[feasible]]
    if any(a > b for a, b in zip(homes, homes[1:])):
        # sorted homes list arrangements in module-tuple order already
        order = np.lexsort(modules.T[::-1])
        feasible, modules = feasible[order], modules[order]
    return arrangements[feasible].T, modules


@lru_cache(maxsize=None)
def _scenario_table(num_modules: int, width: int) -> np.ndarray:
    """Optimal matching of every ``width``-wide issue scenario.

    ``table[a, s, k]`` is the module that slot ``k`` of scenario ``s``
    (a :func:`_case_vectors` row) takes under allocation ``a`` of
    :func:`_allocations`, costs being the information-bit Hamming
    distance to each module's home.
    """
    allocations = _allocations(num_modules)
    table = np.empty((len(allocations), len(CASES) ** width, width),
                     dtype=np.min_scalar_type(num_modules - 1))
    for index, allocation in enumerate(allocations):
        slot_homes, modules = _placements(
            _homes_from_allocation(allocation), width)
        table[index] = modules[_first_minima(
            _HAMMING[:, slot_homes].transpose(1, 0, 2))]
    table.flags.writeable = False  # shared by every caller
    return table


# Home allocation is a pure function of the statistics content, yet a
# figure-4 panel synthesises the same LUTs once per swap mode per
# program version — memoise on the (hashable) distribution content so
# the exhaustive allocation search runs once per distinct input.
_HOMES_CACHE: Dict[tuple, Tuple[int, ...]] = {}


def _stats_key(stats: CaseStatistics) -> tuple:
    return (stats.fu_class,
            tuple(sorted(stats.case_comm_freq.items())),
            tuple(sorted(stats.usage.items())))


def allocate_homes(stats: CaseStatistics, num_modules: int) -> Tuple[int, ...]:
    """Reserve a home case for each module (synthesis step 1).

    Returns one case per module, sorted so same-home modules are
    adjacent.  Every allocation of ``num_modules`` across the four cases
    is scored by a *sequence-aware* expected cost: routing each issue
    scenario by optimal case-to-home matching induces, for every module,
    a distribution of arriving cases; a module's switching cost is the
    expected information-bit Hamming distance between two consecutive
    arrivals from that mix.  This captures what matters at run time —
    a module fed a consistent case mix switches few bits, however that
    mix relates to its nominal home — and reproduces the paper's IALU
    and FPAU allocation examples (verified in the tests).
    """
    if num_modules < 1:
        raise ValueError("need at least one module")
    cache_key = (_stats_key(stats), num_modules)
    cached = _HOMES_CACHE.get(cache_key)
    if cached is not None:
        return cached
    case_probs = stats.case_distribution()
    probs = np.array([case_probs[case] for case in CASES])
    usage = stats.usage_distribution(num_modules)
    allocations = _allocations(num_modules)
    cells = len(CASES) * num_modules

    # every scenario with mass, widths ascending, one weight per slot
    widths, weights = [], []
    for width, width_prob in usage.items():
        if width_prob <= 0.0:
            continue
        scenarios = _case_vectors(width)
        probability = np.full(len(scenarios), width_prob)
        for slot in range(width):
            probability = probability * probs[scenarios[:, slot]]
        probability[~(probability > 0.0)] = 0.0  # no mass, no arrivals
        widths.append(width)
        weights.append(np.repeat(probability, width))
    weight = np.concatenate(weights)
    slot_cases = np.concatenate([_case_vectors(width).ravel()
                                 for width in widths])

    # per-module case-arrival mass under each allocation's routing:
    # each slot feeds the (module, case) cell its matching picks, and
    # bincount adds a cell's scenarios in order, as a loop would
    arrivals = np.empty((len(allocations), num_modules, len(CASES)))
    step = max(1, _SCRATCH_BYTES // (len(weight) * weight.itemsize))
    for start in range(0, len(allocations), step):
        stop = min(start + step, len(allocations))
        target = np.concatenate(
            [_scenario_table(num_modules, width)[start:stop]
             .reshape(stop - start, -1) for width in widths], axis=1,
            dtype=np.intp)
        target *= len(CASES)
        target += slot_cases
        target += cells * np.arange(stop - start)[:, None]
        arrivals[start:stop] = np.bincount(
            target.ravel(), weights=np.tile(weight, stop - start),
            minlength=cells * (stop - start),
        ).reshape(stop - start, num_modules, len(CASES))

    # a module's switching cost: the expected Hamming distance between
    # two consecutive arrivals from its case mix, times its arrival rate
    rate = arrivals[..., 0]
    for case in range(1, len(CASES)):
        rate = rate + arrivals[..., case]
    with np.errstate(divide="ignore", invalid="ignore"):
        mix = arrivals / rate[..., None]
        per_arrival = np.zeros_like(rate)
        for a in range(len(CASES)):
            for b in range(len(CASES)):
                per_arrival = per_arrival + mix[..., a] * mix[..., b] \
                    * case_hamming(CASES[a], CASES[b])
        switching = np.where(rate > 0.0, rate * per_arrival, 0.0)
    expected = np.zeros(len(allocations))
    for module in range(num_modules):
        expected = expected + switching[:, module]

    best_cost = None
    best_homes: Tuple[int, ...] = ()
    for allocation, cost in zip(allocations, expected.tolist()):
        if best_cost is None or cost < best_cost - 1e-12:
            best_cost = cost
            best_homes = _homes_from_allocation(allocation)
    _HOMES_CACHE[cache_key] = best_homes
    return best_homes


def allocate_homes_paper_rule(stats: CaseStatistics,
                              num_modules: int) -> Tuple[int, ...]:
    """The paper's informal allocation, for ablation against the
    optimised :func:`allocate_homes`.

    Section 4.3 reasons: if one case dominates (the IALU's 69% case 00),
    reserve all but one module for it and use the last module for the
    other cases (homed at the most frequent of them); otherwise (FP)
    give each case its own module, extra modules going to the most
    frequent cases.
    """
    if num_modules < 1:
        raise ValueError("need at least one module")
    distribution = stats.case_distribution()
    ranked = sorted(CASES, key=lambda case: (-distribution[case], case))
    dominant = ranked[0]
    if distribution[dominant] > 0.5 and num_modules >= 2:
        homes = [dominant] * (num_modules - 1)
        homes.append(ranked[1])
        return tuple(sorted(homes))
    homes = []
    for index in range(num_modules):
        homes.append(ranked[index % len(ranked)])
    return tuple(sorted(homes))


@dataclass(frozen=True)
class SteeringLUT:
    """A synthesised lookup table: case vector -> module assignment.

    ``vector_ops`` is the number of instruction slots encoded in the
    vector (the paper's 8/4/2-bit vectors encode 4/2/1 slots at two
    bits per slot).  ``table`` maps every possible vector to one module
    index per slot (all distinct).  ``homes`` records each module's
    reserved case, and ``pad_case`` the case used to fill empty slots.
    """

    fu_class: FUClass
    num_modules: int
    vector_ops: int
    homes: Tuple[int, ...]
    pad_case: int
    table: Dict[Vector, Tuple[int, ...]]

    @property
    def vector_bits(self) -> int:
        return 2 * self.vector_ops

    def lookup(self, cases: Sequence[int]) -> Tuple[int, ...]:
        """Module assignment for the first ``vector_ops`` issued ops.

        ``cases`` may be shorter than the vector (fewer instructions
        issued); it is padded with ``pad_case``.  The returned tuple has
        one module per *input* case, pad slots dropped.
        """
        if len(cases) > self.vector_ops:
            raise ValueError(
                f"vector holds {self.vector_ops} slots, got {len(cases)} cases")
        padded = tuple(cases) + (self.pad_case,) * (self.vector_ops - len(cases))
        return self.table[padded][:len(cases)]


def build_lut(stats: CaseStatistics, num_modules: int, vector_bits: int,
              homes: Optional[Tuple[int, ...]] = None) -> SteeringLUT:
    """Synthesise the steering LUT for one FU class (synthesis step 2).

    ``homes`` overrides the optimised allocation (e.g. with
    :func:`allocate_homes_paper_rule`) for ablation studies.
    """
    if vector_bits % 2 or vector_bits < 2:
        raise ValueError("vector width must be a positive multiple of 2 bits")
    vector_ops = vector_bits // 2
    if vector_ops > num_modules:
        raise ValueError("vector cannot encode more slots than modules")
    if homes is None:
        homes = allocate_homes(stats, num_modules)
    elif len(homes) != num_modules:
        raise ValueError("homes must name one case per module")
    pad_case = stats.least_case()
    usage = stats.usage_distribution(num_modules)
    # P(Num(I) >= n) for each vector slot, floored so full vectors still
    # resolve deterministically toward low module indices
    occupancy = []
    for slot in range(1, vector_ops + 1):
        occupancy.append(max(1e-6, sum(fraction
                                       for width, fraction in usage.items()
                                       if width >= slot)))
    slot_homes, modules = _placements(homes, vector_ops)
    slot_costs = (np.array(occupancy)[:, None, None]
                  * _HAMMING[:, slot_homes].transpose(1, 0, 2))
    best = modules[_first_minima(slot_costs)]
    table = dict(zip(itertools.product(CASES, repeat=vector_ops),
                     map(tuple, best.tolist())))
    return SteeringLUT(fu_class=stats.fu_class, num_modules=num_modules,
                       vector_ops=vector_ops, homes=homes,
                       pad_case=pad_case, table=table)


@dataclass(frozen=True)
class GateCost:
    """Estimated implementation cost of the routing control logic."""

    gates: int
    levels: int


def estimate_gate_cost(vector_bits: int, rs_entries: int) -> GateCost:
    """Gate/level estimate for the LUT-based router.

    Calibrated to the paper's two reported data points for the 4-bit
    IALU LUT — 58 gates / 6 levels with 8 reservation-station entries
    and 130 gates / 8 levels with 32 — using a linear gate cost in RS
    entries (the information-bit forwarding mux) plus a LUT term that
    doubles per vector bit, and logarithmic levels.
    """
    if vector_bits < 2 or rs_entries < 1:
        raise ValueError("need a non-empty vector and at least one RS entry")
    lut_gates = 34 * 2 ** (vector_bits - 4)
    forwarding_gates = 3 * rs_entries
    levels = max(2, vector_bits // 2 + 1 + round(log2(rs_entries)))
    return GateCost(gates=round(lut_gates + forwarding_gates), levels=levels)
