"""Assignment solver tests (Figure 2 cost matrix + optimal matching)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import (Assignment, _solve_brute, cost_matrix,
                                   optimal_assignment, solve)
from repro.cpu.trace import MicroOp
from repro.isa import encoding
from repro.isa.instructions import opcode


def full_hamming(op1, op2, prev1, prev2):
    return encoding.hamming_int(op1, prev1) + encoding.hamming_int(op2, prev2)


@st.composite
def integer_matrices(draw):
    """Cost matrices of up to 8 columns, half of them past the 6-column
    brute-force limit; entries in 0..2 make most of those tie-heavy."""
    columns = draw(st.one_of(st.integers(1, 6), st.integers(7, 8)))
    high = draw(st.sampled_from([2, 20]))
    row = st.lists(st.integers(0, high), min_size=columns, max_size=columns)
    return draw(st.lists(row, min_size=1, max_size=columns))


class TestSolve:
    def test_empty(self):
        assert solve([]) == ((), 0.0)

    def test_single_picks_minimum(self):
        modules, total = solve([[5, 1, 3]])
        assert modules == (1,) and total == 1

    def test_injective(self):
        modules, _ = solve([[0, 0], [0, 0]])
        assert len(set(modules)) == 2

    def test_classic_matrix(self):
        costs = [[4, 1, 3], [2, 0, 5], [3, 2, 2]]
        modules, total = solve(costs)
        assert total == 5  # 1 + 2 + 2
        assert modules == (1, 0, 2)

    def test_ties_break_lexicographically(self):
        modules, _ = solve([[1, 1], [1, 1]])
        assert modules == (0, 1)

    def test_too_many_ops(self):
        with pytest.raises(ValueError):
            solve([[1], [1]])

    @settings(max_examples=80, deadline=None)
    @given(integer_matrices())
    def test_module_tuple_is_lexicographic_first_optimum(self, costs):
        # one tie rule on both sides of the brute-force limit
        best_total, best = None, None
        for perm in itertools.permutations(range(len(costs[0])),
                                           len(costs)):
            total = sum(costs[k][m] for k, m in enumerate(perm))
            if best_total is None or total < best_total:
                best_total, best = total, perm
        assert solve(costs) == (best, best_total)

    @settings(max_examples=40, deadline=None)
    @given(integer_matrices())
    def test_float_costs_keep_the_tie_rule(self, costs):
        # quarters add exactly, so the brute force is the reference
        quarters = [[cost / 4 for cost in row] for row in costs]
        assert solve(quarters) \
            == _solve_brute(quarters, len(costs), len(costs[0]))

    @pytest.mark.parametrize("num_ops, num_modules", [(2, 30), (3, 24)])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_wide_machines_match_brute_force(self, num_ops, num_modules,
                                             data):
        # polynomial in the module count: 24 and 30 modules are routine
        row = st.lists(st.integers(0, 2), min_size=num_modules,
                       max_size=num_modules)
        costs = data.draw(st.lists(row, min_size=num_ops, max_size=num_ops))
        assert solve(costs) == _solve_brute(costs, num_ops, num_modules)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 64), min_size=4, max_size=4),
                    min_size=1, max_size=4))
    def test_optimal_below_every_assignment(self, costs):
        _, total = solve(costs)
        for perm in itertools.permutations(range(4), len(costs)):
            assert total <= sum(costs[k][m] for k, m in enumerate(perm))


class TestCostMatrix:
    def test_matches_figure2_definition(self):
        ops = [MicroOp(opcode("sub"), 0xF0, 0x0F)]
        inputs = [(0xF0, 0x0F), (0x00, 0x00)]
        costs, swaps = cost_matrix(ops, inputs, full_hamming)
        assert costs == [[0, 8]]
        assert swaps == [[False, False]]

    def test_commutative_takes_cheaper_order(self):
        # previous inputs are (0x0F, 0xF0); the new op arrives reversed
        ops = [MicroOp(opcode("add"), 0xF0, 0x0F)]
        costs, swaps = cost_matrix(ops, [(0x0F, 0xF0)], full_hamming)
        assert costs == [[0]]
        assert swaps == [[True]]

    def test_non_commutative_never_swaps(self):
        ops = [MicroOp(opcode("sub"), 0xF0, 0x0F)]
        costs, swaps = cost_matrix(ops, [(0x0F, 0xF0)], full_hamming)
        assert costs == [[16]]
        assert swaps == [[False]]

    def test_allow_swap_false_disables_swapping(self):
        ops = [MicroOp(opcode("add"), 0xF0, 0x0F)]
        costs, swaps = cost_matrix(ops, [(0x0F, 0xF0)], full_hamming,
                                   allow_swap=False)
        assert costs == [[16]]
        assert swaps == [[False]]


class TestOptimalAssignment:
    def test_prefers_matching_module(self):
        ops = [MicroOp(opcode("add"), 100, 200),
               MicroOp(opcode("add"), 0xFFFFFFFF, 0xFFFFFFF0)]
        inputs = [(0xFFFFFFFF, 0xFFFFFFF0), (100, 200), (0, 0)]
        assignment = optimal_assignment(ops, inputs, full_hamming)
        assert assignment.modules == (1, 0)
        assert assignment.total_cost == 0

    def test_swap_flags_follow_choice(self):
        ops = [MicroOp(opcode("add"), 0xF0, 0x0F)]
        assignment = optimal_assignment(ops, [(0x0F, 0xF0)], full_hamming)
        assert assignment.swapped == (True,)

    def test_assignment_validates_distinct_modules(self):
        with pytest.raises(ValueError):
            Assignment(modules=(0, 0), swapped=(False, False),
                       total_cost=0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 0xFFFFFFFF),
                              st.integers(0, 0xFFFFFFFF)),
                    min_size=1, max_size=4),
           st.lists(st.tuples(st.integers(0, 0xFFFFFFFF),
                              st.integers(0, 0xFFFFFFFF)),
                    min_size=4, max_size=4))
    def test_optimal_no_worse_than_fcfs(self, operands, inputs):
        ops = [MicroOp(opcode("add"), a, b) for a, b in operands]
        assignment = optimal_assignment(ops, inputs, full_hamming)
        fcfs = sum(full_hamming(op.op1, op.op2, *inputs[k])
                   for k, op in enumerate(ops))
        assert assignment.total_cost <= fcfs
