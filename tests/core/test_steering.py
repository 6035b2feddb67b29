"""Steering policy and evaluator tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.info_bits import PAPER_INT_SCHEME, scheme_for
from repro.core.lut import build_lut
from repro.core.power import FUPowerModel
from repro.core.statistics import paper_statistics
from repro.core.steering import (FullHammingPolicy, LUTPolicy,
                                 OneBitHammingPolicy, OriginalPolicy,
                                 PolicyEvaluator, RoundRobinPolicy,
                                 make_policy)
from repro.core.swapping import HardwareSwapper
from repro.cpu.simulator import Simulator
from repro.cpu.trace import IssueGroup, MicroOp, TraceCollector
from repro.isa import encoding
from repro.isa.assembler import assemble
from repro.isa.instructions import FUClass, opcode
from repro.workloads.generators import SyntheticStream

NEG = encoding.to_unsigned(-100)


def group(ops, cycle=0, fu_class=FUClass.IALU):
    return IssueGroup(cycle, fu_class, ops)


def add_op(a, b):
    return MicroOp(opcode("add"), a, b)


class TestOriginalPolicy:
    def test_fcfs_order(self):
        power = FUPowerModel(FUClass.IALU, 4)
        ops = [add_op(1, 2), add_op(3, 4), add_op(5, 6)]
        assignment = OriginalPolicy().assign(ops, power)
        assert assignment.modules == (0, 1, 2)
        assert assignment.swapped == (False,) * 3


class TestRoundRobinPolicy:
    def test_rotates(self):
        power = FUPowerModel(FUClass.IALU, 4)
        policy = RoundRobinPolicy()
        first = policy.assign([add_op(1, 2), add_op(3, 4)], power)
        second = policy.assign([add_op(5, 6)], power)
        assert first.modules == (0, 1)
        assert second.modules == (2,)


class TestFullHammingPolicy:
    def test_routes_to_matching_module(self):
        power = FUPowerModel(FUClass.IALU, 2)
        power.account(0, 100, 200)
        power.account(1, NEG, NEG)
        assignment = FullHammingPolicy().assign([add_op(NEG, NEG)], power)
        assert assignment.modules == (1,)

    def test_swap_needs_flag(self):
        power = FUPowerModel(FUClass.IALU, 1)
        power.account(0, 100, NEG)
        no_swap = FullHammingPolicy().assign([add_op(NEG, 100)], power)
        with_swap = FullHammingPolicy(allow_swap=True).assign(
            [add_op(NEG, 100)], power)
        assert no_swap.swapped == (False,)
        assert with_swap.swapped == (True,)

    def test_names(self):
        assert FullHammingPolicy().name == "full-ham"
        assert FullHammingPolicy(allow_swap=True).name == "full-ham+swap"


class TestOneBitHammingPolicy:
    def test_sees_only_info_bits(self):
        power = FUPowerModel(FUClass.IALU, 2)
        # module 0 latched positives differing in many low bits
        power.account(0, 0x7FFF, 0x7FFF)
        power.account(1, NEG, NEG)
        policy = OneBitHammingPolicy(scheme=PAPER_INT_SCHEME)
        # a (pos, pos) op: info bits match module 0 exactly
        assignment = policy.assign([add_op(3, 5)], power)
        assert assignment.modules == (0,)


class TestLUTPolicy:
    @pytest.fixture
    def lut_policy(self, ialu_stats):
        lut = build_lut(ialu_stats, 4, 4)
        return LUTPolicy(lut=lut, scheme=scheme_for(FUClass.IALU))

    def test_default_name(self, lut_policy):
        assert lut_policy.name == "lut-4bit"

    def test_overflow_ops_fall_back_to_free_modules(self, lut_policy):
        power = FUPowerModel(FUClass.IALU, 4)
        ops = [add_op(1, 2), add_op(3, 4), add_op(5, 6), add_op(7, 8)]
        assignment = lut_policy.assign(ops, power)
        # 4 ops on a 2-slot vector: all modules used exactly once
        assert sorted(assignment.modules) == [0, 1, 2, 3]

    def test_stateless(self, lut_policy):
        power = FUPowerModel(FUClass.IALU, 4)
        ops = [add_op(1, 2)]
        first = lut_policy.assign(ops, power)
        power.account(first.modules[0], 1, 2)
        second = lut_policy.assign(ops, power)
        assert first.modules == second.modules


class TestMakePolicy:
    def test_all_kinds(self, ialu_stats):
        for kind in ("original", "round-robin", "full-ham", "1bit-ham",
                     "lut-8", "lut-4", "lut-2"):
            policy = make_policy(kind, FUClass.IALU, 4, stats=ialu_stats)
            assert policy is not None

    def test_lut_requires_stats(self):
        with pytest.raises(ValueError, match="need case statistics"):
            make_policy("lut-4", FUClass.IALU, 4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("magic", FUClass.IALU, 4)


class TestPolicyEvaluator:
    def test_ignores_other_classes(self):
        evaluator = PolicyEvaluator(FUClass.IALU, 4, OriginalPolicy())
        evaluator(group([MicroOp(opcode("fadd"), 1, 2)],
                        fu_class=FUClass.FPAU))
        assert evaluator.power.operations == 0

    def test_accounts_each_op_once(self):
        evaluator = PolicyEvaluator(FUClass.IALU, 4, OriginalPolicy())
        evaluator(group([add_op(1, 2), add_op(3, 4)]))
        assert evaluator.power.operations == 2
        assert evaluator.cycles_seen == 1

    def test_pre_swapper_applied(self):
        swapper = HardwareSwapper(PAPER_INT_SCHEME, 0b01)
        evaluator = PolicyEvaluator(FUClass.IALU, 4, OriginalPolicy(),
                                    pre_swapper=swapper)
        evaluator(group([add_op(100, NEG)]))  # case 01 -> swapped
        assert swapper.swaps_performed == 1
        assert evaluator.power.module_inputs(0) == (NEG, 100)
        assert "hwswap" in evaluator.label

    def test_policy_swap_applied_to_accounting(self):
        evaluator = PolicyEvaluator(FUClass.IALU, 1,
                                    FullHammingPolicy(allow_swap=True))
        evaluator(group([add_op(100, NEG)]))
        evaluator(group([add_op(NEG, 100)], cycle=1))
        # the second op should be swapped to match the latched (100, NEG)
        assert evaluator.power.module_inputs(0) == (100, NEG)

    def test_totals(self, ialu_stats):
        evaluator = PolicyEvaluator(FUClass.IALU, 4, OriginalPolicy())
        evaluator(group([add_op(0xF, 0)]))
        totals = evaluator.totals()
        assert totals.switched_bits == 4
        assert totals.operations == 1
        assert totals.policy == "original"
        assert totals.bits_per_operation == 4.0

    def test_reduction_vs(self):
        a = PolicyEvaluator(FUClass.IALU, 4, OriginalPolicy())
        b = PolicyEvaluator(FUClass.IALU, 4, OriginalPolicy())
        a(group([add_op(0xF, 0)]))
        b(group([add_op(0x3, 0)]))
        assert b.totals().reduction_vs(a.totals()) == pytest.approx(0.5)

    def test_reduction_vs_both_zero_is_zero(self):
        # an empty stream is legitimately 0% reduction
        a = PolicyEvaluator(FUClass.IALU, 4, OriginalPolicy())
        b = PolicyEvaluator(FUClass.IALU, 4, OriginalPolicy())
        assert b.totals().reduction_vs(a.totals()) == 0.0

    def test_reduction_vs_degenerate_baseline_raises(self):
        # a baseline that switched nothing while this policy switched
        # something cannot describe the same stream — refuse loudly
        # instead of reporting "no reduction"
        baseline = PolicyEvaluator(FUClass.IALU, 4, OriginalPolicy())
        other = PolicyEvaluator(FUClass.IALU, 4, OriginalPolicy())
        other(group([add_op(0xF, 0)]))
        with pytest.raises(ValueError, match="original"):
            other.totals().reduction_vs(baseline.totals())


class TestPolicyQualityOrdering:
    """The qualitative Figure 4 ordering must hold on calibrated streams."""

    @pytest.mark.parametrize("fu_class", [FUClass.IALU, FUClass.FPAU])
    def test_steering_beats_fcfs(self, fu_class):
        stats = paper_statistics(fu_class)
        evaluators = {
            kind: PolicyEvaluator(fu_class, 4,
                                  make_policy(kind, fu_class, 4, stats=stats))
            for kind in ("original", "lut-4", "full-ham", "1bit-ham")}
        stream = SyntheticStream(stats, seed=11)
        for issue_group in stream.groups(4000):
            for evaluator in evaluators.values():
                evaluator(issue_group)
        bits = {kind: e.totals().switched_bits
                for kind, e in evaluators.items()}
        assert bits["lut-4"] < bits["original"]
        assert bits["full-ham"] < bits["original"]
        assert bits["1bit-ham"] < bits["original"]

    def test_wider_vector_no_worse(self):
        stats = paper_statistics(FUClass.IALU)
        evaluators = {
            kind: PolicyEvaluator(FUClass.IALU, 4,
                                  make_policy(kind, FUClass.IALU, 4,
                                              stats=stats))
            for kind in ("lut-2", "lut-4", "lut-8")}
        stream = SyntheticStream(stats, seed=5)
        for issue_group in stream.groups(6000):
            for evaluator in evaluators.values():
                evaluator(issue_group)
        bits = {kind: e.totals().switched_bits
                for kind, e in evaluators.items()}
        assert bits["lut-8"] <= bits["lut-4"] <= bits["lut-2"]


class TestModuleClamping:
    """Policies may see wider issue groups than they have modules, and a
    LUT built for a wider machine may emit module indices the power
    model does not have; both must be clamped into range."""

    def test_lut_built_for_wider_machine_is_clamped(self, ialu_stats):
        lut = build_lut(ialu_stats, 8, 4)  # table thinks it has 8 modules
        policy = LUTPolicy(lut=lut, scheme=scheme_for(FUClass.IALU))
        power = FUPowerModel(FUClass.IALU, 2)
        ops = [add_op(1, 2), add_op(NEG, NEG)]
        assignment = policy.assign(ops, power)
        assert all(0 <= m < 2 for m in assignment.modules)
        assert len(set(assignment.modules)) == len(assignment.modules)

    def test_lut_group_wider_than_modules(self, ialu_stats):
        lut = build_lut(ialu_stats, 2, 4)
        policy = LUTPolicy(lut=lut, scheme=scheme_for(FUClass.IALU))
        power = FUPowerModel(FUClass.IALU, 2)
        ops = [add_op(k, k + 1) for k in range(5)]  # len(ops) > modules
        assignment = policy.assign(ops, power)
        assert len(assignment.modules) == 2
        assert sorted(assignment.modules) == [0, 1]

    def test_original_policy_group_wider_than_modules(self):
        power = FUPowerModel(FUClass.IALU, 3)
        ops = [add_op(k, k) for k in range(7)]
        assignment = OriginalPolicy().assign(ops, power)
        assert assignment.modules == (0, 1, 2)

    def test_round_robin_group_wider_than_modules(self):
        power = FUPowerModel(FUClass.IALU, 2)
        assignment = RoundRobinPolicy().assign(
            [add_op(k, k) for k in range(5)], power)
        assert len(assignment.modules) == 2
        assert all(0 <= m < 2 for m in assignment.modules)

    def test_evaluator_accounts_at_most_num_modules_ops(self):
        evaluator = PolicyEvaluator(FUClass.IALU, 2, OriginalPolicy())
        evaluator(group([add_op(k, k) for k in range(6)]))
        # a router with 2 ports physically sees 2 operations
        assert evaluator.power.operations == 2


class TestWrongPathAccounting:
    """Regression for include_speculative=False: the simulator marks
    wrong-path micro-ops only retroactively at flush time, so an
    excluding evaluator must defer accounting until the flags are
    final rather than filtering the live stream (where every op still
    looks correct-path)."""

    # the exit branch trains not-taken, so the final taken execution
    # mispredicts and the adds behind it issue on the wrong path; the
    # slow div keeps the branch unresolved long enough for them to issue
    SOURCE = """
.text
    li r1, 6
    li r2, 7
loop:
    addi r1, r1, -1
    div r3, r2, r2
    beq r1, r0, done
    add r4, r2, r1
    add r5, r4, r2
    add r6, r5, r1
    j loop
done:
    add r7, r2, r2
    halt
"""

    def _run(self):
        program = assemble(self.SOURCE)
        sim = Simulator(program)
        inclusive = PolicyEvaluator(FUClass.IALU, 4, OriginalPolicy())
        exclusive = PolicyEvaluator(FUClass.IALU, 4, OriginalPolicy(),
                                    include_speculative=False)
        trace = TraceCollector([FUClass.IALU])
        for listener in (inclusive, exclusive, trace):
            sim.add_listener(listener)
        result = sim.run()
        return result, inclusive, exclusive, trace

    def test_exclusive_skips_wrong_path_ops(self):
        result, inclusive, exclusive, _ = self._run()
        assert result.squashed_ops > 0, "workload must mispredict"
        inc = inclusive.totals()
        exc = exclusive.totals()
        assert exc.operations < inc.operations

    def test_exclusive_matches_trace_replay(self):
        _, _, exclusive, trace = self._run()
        replay = FUPowerModel(FUClass.IALU, 4)
        policy = OriginalPolicy()
        cycles = 0
        for g in trace.groups:
            ops = [op for op in g.ops if not op.speculative][:4]
            if not ops:
                continue
            assignment = policy.assign(ops, replay)
            replay.account_group(ops, assignment.modules,
                                 assignment.swapped)
            cycles += 1
        totals = exclusive.totals()
        assert totals.switched_bits == replay.switched_bits
        assert totals.operations == replay.operations
        assert totals.cycles_seen == cycles
