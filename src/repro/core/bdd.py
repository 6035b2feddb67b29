"""BDD-derived LUT synthesis — the ``bdd-<bits>`` policy family.

Section 4.3's greedy LUT synthesis is one point in a large design
space.  Popel's BDD-based low-power synthesis (cs/0207012) and his
information-measures-for-BDD-reordering work (cs/0207020, both in
PAPERS.md) suggest deriving the case→module table from a *binary
decision diagram over the case-vector statistics* instead:

1. **Demand-split home allocation** (:func:`bdd_allocate_homes`) — a
   decision-diagram partition of the module budget over the two
   information bits: the expected per-cycle demand mass of each case is
   split along the high bit, then the low bit, the budget divided
   proportionally (round-half-up, deterministic) at each branch, and
   every branch with positive mass keeps at least one module while the
   budget allows.  This replaces the greedy LUT's exhaustive
   expected-mismatch-cost search with the recursive probability
   splitting a BDD induces.
2. **Table filling** reuses :func:`repro.core.lut.build_lut` with the
   BDD homes — occupancy-weighted optimal matching per vector, so the
   table semantics (padding, spare-module remap) stay identical to the
   greedy family and the object/batch engines agree bit for bit.
3. **Information-measure variable ordering**
   (:func:`order_variables`) — Popel's measures: variables (the
   ``2 * vector_ops`` case-vector bits) are ordered greedily by the
   information gain ``H(f) - H(f | x)`` about the synthesised module
   assignment, weighted by the case-vector probability distribution
   (:func:`vector_distribution`).
4. **Diagram construction** (:func:`build_bdd`) — a reduced ordered
   (multi-terminal) BDD of the table under that order; mapping each
   decision node to a 2:1 mux (≈3 gates) gives the implementation-cost
   estimate compared against the two-level Quine–McCluskey layer
   (:func:`repro.core.logic.estimate_router_cost`) in EXPERIMENTS.md.

The family is registered here — and only here.  ``make_policy``, the
batch engine, figure-4 grids, campaign validation, and the CLI pick it
up through :data:`repro.core.registry.REGISTRY` without any dispatch
edits: the fused kernel below is the numpy LUT kernel itself (the table
contract is shared through ``LUTPolicy._assign_cases``), so BDD tables
run on the same columnar path as greedy ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import log2
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .info_bits import CASES
from .lut import SteeringLUT, build_lut
from .registry import PolicyFamily, PolicyRequest, REGISTRY, int_suffix
from .statistics import CaseStatistics
from .steering import LUTPolicy

Vector = Tuple[int, ...]
Assignment = Tuple[int, ...]


# ----- case-vector statistics -------------------------------------------------


def vector_distribution(stats: CaseStatistics, num_modules: int,
                        vector_ops: int) -> Dict[Vector, float]:
    """Probability of each padded case vector.

    Mirrors the runtime exactly: a cycle issuing ``w`` operations fills
    the first ``min(w, vector_ops)`` slots from the case distribution
    and pads the rest with the least frequent case, with cycle widths
    weighted by the usage distribution (Table 2).
    """
    case_probs = stats.case_distribution()
    usage = stats.usage_distribution(num_modules)
    pad = stats.least_case()
    dist: Dict[Vector, float] = {
        vector: 0.0 for vector in itertools.product(CASES, repeat=vector_ops)}
    for width, width_prob in usage.items():
        if width_prob <= 0.0:
            continue
        filled = min(width, vector_ops)
        for combo in itertools.product(CASES, repeat=filled):
            probability = width_prob
            for case in combo:
                probability *= case_probs[case]
            if probability <= 0.0:
                continue
            vector = combo + (pad,) * (vector_ops - filled)
            dist[vector] += probability
    return dist


def bdd_allocate_homes(stats: CaseStatistics,
                       num_modules: int) -> Tuple[int, ...]:
    """Allocate module homes by recursive demand splitting.

    The four cases form the leaves of a two-level decision diagram over
    the information bits.  Each case's *demand mass* is its expected
    number of arrivals per cycle; descending the diagram, the module
    budget is divided between the 0- and 1-cofactor in proportion to
    their mass (round-half-up toward the 0 side, so ties are
    deterministic), except that a cofactor carrying *any* positive mass
    keeps at least one module whenever the budget allows — every
    reachable branch of the diagram gets hardware, so a heavily skewed
    case mix cannot collapse the whole table onto one case.  Cases
    whose branch still gets no modules are routed to the nearest home
    by the table's matching step, exactly like overflow operations in
    the greedy family.
    """
    if num_modules < 1:
        raise ValueError("need at least one module")
    case_probs = stats.case_distribution()
    usage = stats.usage_distribution(num_modules)
    expected_width = sum(width * prob for width, prob in usage.items())
    demand = {case: expected_width * case_probs[case] for case in CASES}

    def split(budget: int, cases: Sequence[int]) -> List[int]:
        if budget == 0:
            return []
        if len(cases) == 1:
            return [cases[0]] * budget
        half = len(cases) // 2
        low, high = list(cases[:half]), list(cases[half:])
        mass_low = sum(demand[case] for case in low)
        mass_high = sum(demand[case] for case in high)
        total = mass_low + mass_high
        if total <= 0.0:
            budget_low = budget  # degenerate: park everything low
        else:
            budget_low = int(budget * mass_low / total + 0.5)
            if budget >= 2:
                if mass_low > 0.0:
                    budget_low = max(budget_low, 1)
                if mass_high > 0.0:
                    budget_low = min(budget_low, budget - 1)
        return (split(budget_low, low)
                + split(budget - budget_low, high))

    return tuple(sorted(split(num_modules, list(CASES))))


# ----- Popel information-measure variable ordering ----------------------------


def _entropy(masses: Mapping[Assignment, float]) -> float:
    """Shannon entropy of a value distribution given unnormalised mass."""
    total = sum(masses.values())
    if total <= 0.0:
        return 0.0
    entropy = 0.0
    for mass in masses.values():
        if mass > 0.0:
            p = mass / total
            entropy -= p * log2(p)
    return entropy


def _bit_of(vector: Vector, var: int) -> int:
    """Variable ``var`` is bit ``var % 2`` (high bit first) of slot
    ``var // 2`` — the wire order a hardware vector register presents."""
    slot, bit = divmod(var, 2)
    return (vector[slot] >> (1 - bit)) & 1


def order_variables(table: Mapping[Vector, Assignment],
                    dist: Mapping[Vector, float]) -> Tuple[int, ...]:
    """Greedy information-gain variable order (Popel's measures).

    At each step the chosen variable maximises the expected reduction
    in conditional entropy of the module assignment, summed over the
    contexts (vector subsets) the already-ordered variables induce and
    weighted by the case-vector distribution.  Ties break toward the
    lowest variable index, so the order is deterministic.
    """
    some_vector = next(iter(table))
    nvars = 2 * len(some_vector)
    weighted = [(vector, dist.get(vector, 0.0)) for vector in table]
    groups: List[List[Tuple[Vector, float]]] = [weighted]
    remaining = list(range(nvars))
    order: List[int] = []
    while remaining:
        best_var: Optional[int] = None
        best_gain = -1.0
        for var in remaining:
            gain = 0.0
            for group in groups:
                mass = sum(p for _v, p in group)
                if mass <= 0.0:
                    continue
                joint: Dict[Assignment, float] = {}
                sides: Tuple[Dict[Assignment, float], ...] = ({}, {})
                side_mass = [0.0, 0.0]
                for vector, p in group:
                    value = table[vector]
                    joint[value] = joint.get(value, 0.0) + p
                    side = _bit_of(vector, var)
                    sides[side][value] = sides[side].get(value, 0.0) + p
                    side_mass[side] += p
                conditional = sum(
                    (side_mass[b] / mass) * _entropy(sides[b])
                    for b in (0, 1) if side_mass[b] > 0.0)
                gain += mass * (_entropy(joint) - conditional)
            if gain > best_gain + 1e-12:
                best_gain = gain
                best_var = var
        assert best_var is not None
        order.append(best_var)
        remaining.remove(best_var)
        next_groups: List[List[Tuple[Vector, float]]] = []
        for group in groups:
            halves: Tuple[list, list] = ([], [])
            for vector, p in group:
                halves[_bit_of(vector, best_var)].append((vector, p))
            next_groups.extend(half for half in halves if half)
        groups = next_groups
    return tuple(order)


# ----- reduced ordered (multi-terminal) BDD -----------------------------------


@dataclass(frozen=True)
class SteeringBDD:
    """A reduced ordered multi-terminal BDD of one steering table.

    ``nodes`` maps node ids to ``(var, lo_ref, hi_ref)`` where refs are
    either node ids or ``("leaf", assignment)`` terminals.  ``order``
    is the variable order the diagram was built under.
    """

    order: Tuple[int, ...]
    root: object
    nodes: Mapping[int, Tuple[int, object, object]]
    terminal_count: int

    @property
    def node_count(self) -> int:
        """Internal decision nodes (each one 2:1 mux in hardware)."""
        return len(self.nodes)

    @property
    def levels(self) -> int:
        """Longest root-to-terminal mux chain."""
        depth: Dict[object, int] = {}

        def walk(ref: object) -> int:
            if ref not in self.nodes:
                return 0
            cached = depth.get(ref)
            if cached is None:
                _var, lo, hi = self.nodes[ref]
                cached = 1 + max(walk(lo), walk(hi))
                depth[ref] = cached
            return cached

        return walk(self.root)

    def evaluate(self, vector: Vector) -> Assignment:
        """Walk the diagram for one case vector (parity check vs the
        table the diagram was built from)."""
        ref = self.root
        while ref in self.nodes:
            var, lo, hi = self.nodes[ref]
            ref = hi if _bit_of(vector, var) else lo
        return ref[1]  # ("leaf", assignment)


def build_bdd(table: Mapping[Vector, Assignment],
              order: Sequence[int]) -> SteeringBDD:
    """Reduce the table into an ordered multi-terminal BDD.

    Equal cofactors collapse (node elision) and structurally identical
    subdiagrams share (hash-consing), so ``node_count`` is the mux
    count of the direct hardware mapping.
    """
    some_vector = next(iter(table))
    vector_ops = len(some_vector)
    nvars = 2 * vector_ops
    if sorted(order) != list(range(nvars)):
        raise ValueError(f"order must permute the {nvars} vector bits")

    def value_at(index: int) -> Assignment:
        cases = [0] * vector_ops
        for depth, var in enumerate(order):
            bit = (index >> (nvars - 1 - depth)) & 1
            slot, b = divmod(var, 2)
            cases[slot] |= bit << (1 - b)
        return table[tuple(cases)]

    leaves = tuple(value_at(i) for i in range(1 << nvars))
    unique: Dict[tuple, object] = {}
    nodes: Dict[int, Tuple[int, object, object]] = {}
    terminals: Dict[Assignment, object] = {}

    def mk(depth: int, values: Tuple[Assignment, ...]) -> object:
        first = values[0]
        if all(value == first for value in values):
            return terminals.setdefault(first, ("leaf", first))
        half = len(values) // 2
        lo = mk(depth + 1, values[:half])
        hi = mk(depth + 1, values[half:])
        if lo == hi:
            return lo
        key = (order[depth], lo, hi)
        ref = unique.get(key)
        if ref is None:
            ref = len(nodes)
            unique[key] = ref
            nodes[ref] = key
        return ref

    root = mk(0, leaves)
    return SteeringBDD(order=tuple(order), root=root, nodes=nodes,
                       terminal_count=len(terminals))


# ----- synthesis entry points -------------------------------------------------


def build_bdd_lut(stats: CaseStatistics, num_modules: int,
                  vector_bits: int) -> SteeringLUT:
    """Synthesise the BDD family's steering table.

    Homes come from the demand-split diagram, the fill from the shared
    occupancy-weighted matcher — so the result is a plain
    :class:`SteeringLUT` every existing consumer (object evaluator,
    batch kernels, Verilog export, logic synthesis) understands.
    """
    if stats is None:
        raise ValueError("BDD policies need case statistics")
    homes = bdd_allocate_homes(stats, num_modules)
    return build_lut(stats, num_modules, vector_bits, homes=homes)


def synthesize_bdd(stats: CaseStatistics, num_modules: int,
                   vector_bits: int) -> Tuple[SteeringLUT, SteeringBDD]:
    """Full synthesis: the steering table plus its ordered diagram."""
    lut = build_bdd_lut(stats, num_modules, vector_bits)
    dist = vector_distribution(stats, num_modules, lut.vector_ops)
    order = order_variables(lut.table, dist)
    return lut, build_bdd(lut.table, order)


@dataclass(frozen=True)
class BDDCost:
    """Implementation cost of the BDD-mapped router control."""

    nodes: int              # decision nodes (2:1 muxes)
    gates: int              # muxes at 3 gates each + forwarding network
    levels: int             # mux chain depth + RS forwarding levels


def estimate_bdd_router_cost(stats: CaseStatistics, num_modules: int,
                             vector_bits: int, rs_entries: int) -> BDDCost:
    """Constructive cost of the BDD router, comparable with
    :func:`repro.core.logic.estimate_router_cost`: each decision node
    maps to a 2:1 mux (3 NAND-equivalents) and the information-bit
    forwarding network is the same ``3 * rs_entries + 19`` gate,
    ``log2(rs_entries)``-level model the two-level estimate charges."""
    if rs_entries < 1:
        raise ValueError("need at least one reservation station entry")
    _lut, bdd = synthesize_bdd(stats, num_modules, vector_bits)
    forwarding = 3 * rs_entries + 19
    levels = bdd.levels + max(1, round(log2(rs_entries)))
    return BDDCost(nodes=bdd.node_count,
                   gates=3 * bdd.node_count + forwarding,
                   levels=levels)


# ----- the policy and its registration ----------------------------------------


@dataclass
class BDDPolicy(LUTPolicy):
    """Stateless steering from a BDD-synthesised table.

    The runtime contract — memoised ``_assign_cases``, spare-module
    remap, padding — is inherited from :class:`LUTPolicy`; only the
    synthesis differs.  It is registered as its own family, so kernel
    resolution (exact-type match) routes it through the kernels
    registered *here*, never the greedy LUT's entries.
    """

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"bdd-{self.lut.vector_bits}bit"
        super().__post_init__()


def _build_bdd_policy(req: PolicyRequest) -> BDDPolicy:
    lut = build_bdd_lut(req.stats, req.num_modules, req.params["bits"])
    return BDDPolicy(lut=lut, scheme=req.scheme)


REGISTRY.register(PolicyFamily(
    name="bdd", syntax="bdd-<bits>",
    description="BDD-synthesised LUT steering (demand-split homes,"
                " Popel information-measure variable order)",
    parse=int_suffix("bdd-"), build=_build_bdd_policy,
    policy_types=(BDDPolicy,), needs_stats=True,
    grid_kinds=("bdd-4",), grid_order=40.0))


def _bdd_kernel(ev, cols):
    """The table contract is shared with the LUT family through
    ``LUTPolicy._assign_cases``, so the LUT kernel runs BDD tables
    unchanged (and its scheme guard declines to the object path).
    Imported lazily — core must not import batch at module load (batch
    imports core)."""
    from ..batch.kernels import _np_lut_kernel
    return _np_lut_kernel(ev, cols)


REGISTRY.register_kernel("bdd", "np", _bdd_kernel)
