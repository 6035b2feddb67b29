"""BDD-derived LUT synthesis: homes, variable order, diagram, costs."""

import itertools

import pytest

from repro.core.bdd import (BDDPolicy, bdd_allocate_homes, build_bdd,
                            build_bdd_lut, estimate_bdd_router_cost,
                            order_variables, synthesize_bdd,
                            vector_distribution)
from repro.core.info_bits import CASES, scheme_for
from repro.core.lut import SteeringLUT, allocate_homes
from repro.core.power import FUPowerModel
from repro.core.statistics import CaseStatistics, paper_statistics
from repro.core.steering import LUTPolicy, PolicyEvaluator, make_policy
from repro.cpu.trace import MicroOp
from repro.isa.instructions import FUClass, opcode
from repro.workloads.generators import SyntheticStream


class TestHomeAllocation:
    def test_demand_split_shape(self, ialu_stats):
        homes = bdd_allocate_homes(ialu_stats, 4)
        assert len(homes) == 4
        assert homes == tuple(sorted(homes))
        assert all(case in CASES for case in homes)

    def test_differs_from_greedy_search(self):
        # the BDD partition is a genuinely different synthesis, not a
        # re-derivation of the greedy expected-cost minimiser: on a
        # skewed case mix (like the measured integer suite, ~87% case
        # 0) the demand split keeps one home per live case while the
        # cost-driven greedy search concentrates elsewhere
        skewed = CaseStatistics(
            fu_class=FUClass.IALU,
            case_comm_freq={(0, True): 0.60, (0, False): 0.27,
                            (1, True): 0.06, (1, False): 0.03,
                            (2, True): 0.02, (2, False): 0.01,
                            (3, True): 0.007, (3, False): 0.003},
            usage={1: 0.5, 2: 0.3, 3: 0.15, 4: 0.05})
        assert bdd_allocate_homes(skewed, 4) != allocate_homes(skewed, 4)

    def test_skewed_mix_keeps_every_live_case_reachable(self):
        # ~90% case 0 must not collapse every home onto case 0
        skewed = CaseStatistics(
            fu_class=FUClass.IALU,
            case_comm_freq={(0, True): 0.9, (1, True): 0.06,
                            (2, True): 0.03, (3, True): 0.01},
            usage={1: 0.6, 2: 0.4})
        homes = bdd_allocate_homes(skewed, 4)
        assert len(set(homes)) > 1

    def test_single_module(self, ialu_stats):
        homes = bdd_allocate_homes(ialu_stats, 1)
        assert len(homes) == 1

    def test_zero_modules_rejected(self, ialu_stats):
        with pytest.raises(ValueError, match="at least one module"):
            bdd_allocate_homes(ialu_stats, 0)

    def test_deterministic(self, ialu_stats):
        assert bdd_allocate_homes(ialu_stats, 4) == \
            bdd_allocate_homes(ialu_stats, 4)


class TestVectorDistribution:
    def test_mass_matches_usage(self, ialu_stats):
        dist = vector_distribution(ialu_stats, 4, 2)
        usage = ialu_stats.usage_distribution(4)
        assert all(p >= 0.0 for p in dist.values())
        assert sum(dist.values()) == pytest.approx(sum(usage.values()))

    def test_covers_every_vector(self, ialu_stats):
        dist = vector_distribution(ialu_stats, 4, 2)
        assert set(dist) == set(itertools.product(CASES, repeat=2))


class TestVariableOrder:
    def _table_and_dist(self, stats, bits=4):
        lut = build_bdd_lut(stats, 4, bits)
        dist = vector_distribution(stats, 4, lut.vector_ops)
        return lut.table, dist

    def test_order_is_permutation(self, ialu_stats):
        table, dist = self._table_and_dist(ialu_stats)
        order = order_variables(table, dist)
        assert sorted(order) == [0, 1, 2, 3]

    def test_order_deterministic(self, ialu_stats):
        table, dist = self._table_and_dist(ialu_stats)
        assert order_variables(table, dist) == order_variables(table, dist)


class TestDiagram:
    def test_evaluate_matches_table_everywhere(self, ialu_stats, fpau_stats):
        for stats in (ialu_stats, fpau_stats):
            lut, bdd = synthesize_bdd(stats, 4, 4)
            for vector, assignment in lut.table.items():
                assert bdd.evaluate(vector) == assignment, vector

    def test_reduction_beats_complete_tree(self, ialu_stats):
        _lut, bdd = synthesize_bdd(ialu_stats, 4, 4)
        # a complete binary tree over 4 variables has 15 internal nodes;
        # sharing and elision must do strictly better on real tables
        assert 0 < bdd.node_count < 15
        assert 0 < bdd.levels <= 4

    def test_invalid_order_rejected(self, ialu_stats):
        lut = build_bdd_lut(ialu_stats, 4, 4)
        with pytest.raises(ValueError, match="permute"):
            build_bdd(lut.table, (0, 1, 2))
        with pytest.raises(ValueError, match="permute"):
            build_bdd(lut.table, (0, 1, 2, 2))


class TestSynthesis:
    def test_builds_plain_steering_lut(self, ialu_stats):
        lut = build_bdd_lut(ialu_stats, 4, 4)
        assert isinstance(lut, SteeringLUT)
        assert lut.homes == bdd_allocate_homes(ialu_stats, 4)

    def test_needs_stats(self):
        with pytest.raises(ValueError, match="need case statistics"):
            build_bdd_lut(None, 4, 4)

    def test_router_cost_model(self, ialu_stats):
        cost = estimate_bdd_router_cost(ialu_stats, 4, 4, rs_entries=8)
        assert cost.gates == 3 * cost.nodes + (3 * 8 + 19)
        assert cost.levels >= 1 + 3  # at least one mux + log2(8) forwarding
        deeper = estimate_bdd_router_cost(ialu_stats, 4, 4, rs_entries=32)
        assert deeper.gates > cost.gates
        assert deeper.nodes == cost.nodes

    def test_router_cost_rejects_empty_rs(self, ialu_stats):
        with pytest.raises(ValueError, match="reservation station"):
            estimate_bdd_router_cost(ialu_stats, 4, 4, rs_entries=0)


class TestBDDPolicy:
    def test_make_policy_builds_named_bdd_policy(self, ialu_stats):
        policy = make_policy("bdd-4", FUClass.IALU, 4, stats=ialu_stats)
        assert isinstance(policy, BDDPolicy)
        assert isinstance(policy, LUTPolicy)
        assert policy.name == "bdd-4bit"
        assert policy.scheme is scheme_for(FUClass.IALU)

    def test_stateless(self, ialu_stats):
        # the steering reads only the ops, never the modules' latched
        # inputs: two fresh policies steer the same ops identically
        # against an idle and a busy power model
        ops = [MicroOp(opcode("add"), 1, 2),
               MicroOp(opcode("add"), 0xFFFFFF9C, 7)]
        idle = FUPowerModel(FUClass.IALU, 4)
        busy = FUPowerModel(FUClass.IALU, 4)
        for module in range(4):
            busy.account(module, 0xFFFFFFFF - module, 0x12345678)
        first = make_policy("bdd-4", FUClass.IALU, 4, stats=ialu_stats)
        second = make_policy("bdd-4", FUClass.IALU, 4, stats=ialu_stats)
        assert first.assign(ops, idle) == second.assign(ops, busy)

    @pytest.mark.parametrize("fu_class", [FUClass.IALU, FUClass.FPAU])
    def test_steering_beats_fcfs(self, fu_class):
        stats = paper_statistics(fu_class)
        evaluators = {
            kind: PolicyEvaluator(fu_class, 4,
                                  make_policy(kind, fu_class, 4, stats=stats))
            for kind in ("original", "bdd-4")}
        for issue_group in SyntheticStream(stats, seed=17).groups(4000):
            for evaluator in evaluators.values():
                evaluator(issue_group)
        bits = {kind: e.totals().switched_bits
                for kind, e in evaluators.items()}
        assert bits["bdd-4"] < bits["original"]
