"""Optimal instruction-to-module assignment (section 4.1, Figure 2).

Given the operations issued this cycle and each module's latched
previous inputs, build the cost matrix of Figure 2 — the Hamming
distance of each operation's operands to each module's previous
operands, taking the cheaper operand order for commutative operations —
then pick the assignment minimising total cost.

The paper notes this is too expensive for hardware (it is the *upper
bound* labelled "Full Ham" in Figure 4); here it is also reused, with a
1-bit operand summary, for the "1-bit Ham" policy.  Matching is exact,
with one tie rule at every module count: among the cheapest module
tuples, the lexicographically smallest wins.  Up to six modules a brute
force over permutations defines it (adding each candidate's costs in
slot order); above six, Kuhn-Munkres on tie-breaking perturbed costs
returns the same tuple in polynomial time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from typing import Callable, List, Optional, Sequence, Tuple

from ..cpu.trace import MicroOp

# cost_fn(op1, op2, prev1, prev2) -> non-negative cost
CostFn = Callable[[int, int, int, int], float]

_BRUTE_FORCE_LIMIT = 6


@dataclass(frozen=True)
class Assignment:
    """Result of assigning one cycle's operations to modules.

    ``modules[k]`` is the module index for operation ``k``;
    ``swapped[k]`` says whether its operands should be exchanged before
    driving the module; ``total_cost`` is the matrix cost of the chosen
    assignment.
    """

    modules: Tuple[int, ...]
    swapped: Tuple[bool, ...]
    total_cost: float

    def __post_init__(self) -> None:
        if len(set(self.modules)) != len(self.modules):
            raise ValueError("assignment must map operations to distinct modules")


def cost_matrix(ops: Sequence[MicroOp],
                module_inputs: Sequence[Tuple[int, int]],
                cost_fn: CostFn,
                allow_swap: bool = True) -> Tuple[List[List[float]], List[List[bool]]]:
    """Figure 2: cost of every (operation, module) pairing.

    Returns ``(costs, swaps)`` where ``costs[k][m]`` is the best cost of
    running operation ``k`` on module ``m`` and ``swaps[k][m]`` records
    whether that best cost requires swapping the operands (only ever
    True for hardware-swappable operations).
    """
    costs: List[List[float]] = []
    swaps: List[List[bool]] = []
    for op in ops:
        op_costs: List[float] = []
        op_swaps: List[bool] = []
        for prev1, prev2 in module_inputs:
            direct = cost_fn(op.op1, op.op2, prev1, prev2)
            if allow_swap and op.hardware_swappable:
                exchanged = cost_fn(op.op2, op.op1, prev1, prev2)
                if exchanged < direct:
                    op_costs.append(exchanged)
                    op_swaps.append(True)
                    continue
            op_costs.append(direct)
            op_swaps.append(False)
        costs.append(op_costs)
        swaps.append(op_swaps)
    return costs, swaps


def solve(costs: Sequence[Sequence[float]]) -> Tuple[Tuple[int, ...], float]:
    """Minimum-cost injective assignment of rows (ops) to columns (modules).

    Requires ``len(costs) <= len(costs[0])``.  Ties break toward the
    lexicographically smallest module tuple, making results deterministic.
    """
    num_ops = len(costs)
    if num_ops == 0:
        return (), 0.0
    num_modules = len(costs[0])
    if num_ops > num_modules:
        raise ValueError(
            f"cannot place {num_ops} operations on {num_modules} modules")
    if num_modules <= _BRUTE_FORCE_LIMIT:
        return _solve_brute(costs, num_ops, num_modules)
    return _solve_hungarian(costs, num_ops, num_modules)


def _slot_order_total(costs, modules: Sequence[int]):
    """A candidate's cost, added left to right in slot order.

    Not builtin ``sum``: it compensates float sums on Python >= 3.12,
    which would make float ties break differently across versions.
    """
    total = 0
    for k, m in enumerate(modules):
        total += costs[k][m]
    return total


def _solve_brute(costs, num_ops: int, num_modules: int):
    best_total: Optional[float] = None
    best: Optional[Tuple[int, ...]] = None
    for modules in itertools.permutations(range(num_modules), num_ops):
        total = _slot_order_total(costs, modules)
        if best_total is None or total < best_total:
            best_total = total
            best = modules
    assert best is not None
    return best, best_total


def _solve_hungarian(costs, num_ops: int, num_modules: int):
    """Exact matching past the brute-force limit, in O(ops^2 * modules).

    Kuhn-Munkres (shortest augmenting paths with potentials) on costs
    perturbed so that the lexicographically first cheapest tuple is the
    only optimum: each cost is scaled by ``num_modules ** num_ops``, and
    slot ``k`` on module ``m`` adds ``m * num_modules ** (num_ops - 1 -
    k)``.  The added terms spell the module tuple in base
    ``num_modules`` and stay below one unit of cost, so they only break
    ties, toward the lowest tuple.  Costs are made integral first
    (floats are dyadic, so one common denominator does it); the answer
    is the brute force's wherever its sums are exact, as on the integer
    Hamming costs every caller past six modules passes.
    """
    integral = costs
    if not all(isinstance(cost, int) for row in costs for cost in row):
        # no caller past six modules passes floats: import on demand
        from fractions import Fraction

        ratios = [[Fraction(cost) for cost in row] for row in costs]
        unit = lcm(*(ratio.denominator for row in ratios for ratio in row))
        integral = [[int(ratio * unit) for ratio in row] for row in ratios]
    scale = num_modules ** num_ops
    matrix = []
    for k, row in enumerate(integral):
        place = num_modules ** (num_ops - 1 - k)
        matrix.append([cost * scale + m * place
                       for m, cost in enumerate(row)])
    # rows and columns count from 1; column 0 roots each search
    row_potential = [0] * (num_ops + 1)
    column_potential = [0] * (num_modules + 1)
    owner = [0] * (num_modules + 1)  # the row holding each column
    columns = range(1, num_modules + 1)
    for op in range(1, num_ops + 1):
        owner[0] = op
        slack = [float("inf")] * (num_modules + 1)
        via = [0] * (num_modules + 1)
        done = [False] * (num_modules + 1)
        column = 0
        while owner[column]:
            done[column] = True
            row = owner[column]
            potential = row_potential[row]
            delta, target = float("inf"), 0
            for j in columns:
                if not done[j]:
                    reduced = matrix[row - 1][j - 1] - potential \
                        - column_potential[j]
                    if reduced < slack[j]:
                        slack[j], via[j] = reduced, column
                    if slack[j] < delta:
                        delta, target = slack[j], j
            for j in range(num_modules + 1):
                if done[j]:
                    row_potential[owner[j]] += delta
                    column_potential[j] -= delta
                else:
                    slack[j] -= delta
            column = target
        while column:  # augment along the path back to the root
            owner[column] = owner[via[column]]
            column = via[column]
    modules = [0] * num_ops
    for j in columns:
        if owner[j]:
            modules[owner[j] - 1] = j - 1
    return tuple(modules), _slot_order_total(costs, modules)


def optimal_assignment(ops: Sequence[MicroOp],
                       module_inputs: Sequence[Tuple[int, int]],
                       cost_fn: CostFn,
                       allow_swap: bool = True) -> Assignment:
    """Best assignment (and per-op swap choices) for one cycle."""
    costs, swaps = cost_matrix(ops, module_inputs, cost_fn, allow_swap)
    modules, total = solve(costs)
    swapped = tuple(swaps[k][m] for k, m in enumerate(modules))
    return Assignment(modules=modules, swapped=swapped, total_cost=total)
