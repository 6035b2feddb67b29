"""Fault injection: zero-rate purity, determinism, degradation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.statistics import paper_statistics
from repro.core.steering import PolicyEvaluator, make_policy
from repro.cpu.simulator import Simulator, simulate
from repro.cpu.trace import MicroOp, TraceCollector
from repro.isa.instructions import FUClass, opcode
from repro.runner.faults import FAULT_MODES, FaultInjector, fault_sweep


def _lut_evaluator(fault_injector=None):
    stats = paper_statistics(FUClass.IALU)
    policy = make_policy("lut-4", FUClass.IALU, 4, stats=stats)
    return PolicyEvaluator(FUClass.IALU, 4, policy,
                           fault_injector=fault_injector)


class TestZeroRateIsExactNoOp:
    """ISSUE acceptance: fault rate 0.0 is bit-identical to a clean run."""

    def test_evaluator_hook_bit_identical(self, sum_program):
        collector = TraceCollector([FUClass.IALU])
        simulate(sum_program, listeners=[collector])

        clean = _lut_evaluator()
        faulted = _lut_evaluator(fault_injector=FaultInjector(0.0))
        for group in collector.groups:
            clean(group)
            faulted(group)
        assert faulted.totals().switched_bits == clean.totals().switched_bits
        assert faulted.totals().operations == clean.totals().operations

    def test_simulator_hook_bit_identical(self, sum_program):
        baseline = _lut_evaluator()
        sim = Simulator(sum_program)
        sim.add_listener(baseline)
        clean_result = sim.run()

        injected = _lut_evaluator()
        sim = Simulator(sum_program, fault_injector=FaultInjector(0.0))
        sim.add_listener(injected)
        result = sim.run()

        assert result.cycles == clean_result.cycles
        assert injected.totals().switched_bits \
            == baseline.totals().switched_bits

    def test_zero_rate_view_is_same_object(self):
        injector = FaultInjector(0.0)
        ops = [MicroOp(opcode("add"), 1, 2, has_two=True)]
        assert injector.corrupt_view(ops, FUClass.IALU) is ops
        assert injector.flips == 0


class TestInjection:
    def test_rate_one_flips_every_operand(self):
        injector = FaultInjector(1.0, mode="info")
        ops = [MicroOp(opcode("add"), 0, 1 << 31, has_two=True)]
        view = injector.corrupt_view(ops, FUClass.IALU)
        assert view is not ops
        # the caller's list is never mutated: power model sees the truth
        assert ops[0].op1 == 0 and ops[0].op2 == 1 << 31
        # the policy's view has the int info (sign) bit inverted
        assert view[0].op1 == 1 << 31 and view[0].op2 == 0
        assert injector.flips == 2

    def test_info_mode_toggles_fp_nibble(self):
        injector = FaultInjector(1.0, mode="info")
        assert injector._corrupt_image(0b10000, is_float=True) & 0xF
        assert injector._corrupt_image(0b10101, is_float=True) & 0xF == 0

    def test_operand_mode_flips_one_bit(self):
        injector = FaultInjector(1.0, mode="operand", seed=3)
        for _ in range(32):
            flipped = injector._corrupt_image(0, is_float=False)
            assert bin(flipped).count("1") == 1
            assert flipped < (1 << 32)

    def test_in_place_hook_mutates_micro_op(self):
        injector = FaultInjector(1.0, mode="info")
        micro = MicroOp(opcode("add"), 5, 9, has_two=True)
        injector(micro, FUClass.IALU)
        assert micro.op1 == 5 ^ (1 << 31)
        assert micro.op2 == 9 ^ (1 << 31)

    def test_fu_class_filter(self):
        injector = FaultInjector(1.0, fu_classes=[FUClass.FPAU])
        micro = MicroOp(opcode("add"), 5, 9, has_two=True)
        injector(micro, FUClass.IALU)
        assert (micro.op1, micro.op2) == (5, 9)
        assert injector.flips == 0

    def test_same_seed_same_upsets(self, sum_program):
        collector = TraceCollector([FUClass.IALU])
        simulate(sum_program, listeners=[collector])
        totals = []
        for _ in range(2):
            evaluator = _lut_evaluator(
                fault_injector=FaultInjector(0.2, seed=7))
            for group in collector.groups:
                evaluator(group)
            totals.append(evaluator.totals().switched_bits)
        assert totals[0] == totals[1]

    def test_reset_restores_rng(self):
        injector = FaultInjector(0.5, mode="operand", seed=11)
        first = [injector._corrupt_image(0, False) for _ in range(8)]
        injector.flips = 99
        injector.reset()
        assert injector.flips == 0
        assert [injector._corrupt_image(0, False) for _ in range(8)] == first

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            FaultInjector(1.5)
        with pytest.raises(ValueError, match="rate"):
            FaultInjector(-0.1)
        with pytest.raises(ValueError, match="mode"):
            FaultInjector(0.1, mode="gamma-ray")


#: one group of (op1, op2, has_two) operations
_groups = st.lists(st.lists(st.tuples(st.integers(0, 2**32 - 1),
                                      st.integers(0, 2**32 - 1),
                                      st.booleans()),
                            min_size=1, max_size=6), max_size=12)


class TestColumnarView:
    """``corrupt_columns`` over a stream's ops is ``corrupt_view`` called
    group after group: the same view, counters and RNG state."""

    @settings(max_examples=60, deadline=None)
    @given(groups=_groups, rate=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
           mode=st.sampled_from(FAULT_MODES),
           fu_class=st.sampled_from([FUClass.IALU, FUClass.FPAU]),
           fu_filter=st.sampled_from([None, [FUClass.IALU],
                                      [FUClass.FPAU]]),
           seed=st.integers(0, 99))
    def test_equals_successive_views(self, groups, rate, mode, fu_class,
                                     fu_filter, seed):
        def injector():
            return FaultInjector(rate, mode=mode, seed=seed,
                                 fu_classes=fu_filter)

        by_group = injector()
        want = []
        for group in groups:
            ops = [MicroOp(opcode("add"), op1, op2 if two else 0,
                           has_two=two) for op1, op2, two in group]
            want += [(op.op1, op.op2)
                     for op in by_group.corrupt_view(ops, fu_class)]

        flat = [op for group in groups for op in group]
        op1 = np.array([op1 for op1, _, _ in flat], dtype=np.uint64)
        op2 = np.array([op2 if two else 0 for _, op2, two in flat],
                       dtype=np.uint64)
        has_two = np.array([two for _, _, two in flat], dtype=bool)
        columnar = injector()
        view1, view2 = columnar.corrupt_columns(op1, op2, has_two, fu_class)
        assert list(zip(view1.tolist(), view2.tolist())) == want
        assert (columnar.flips, columnar.operands_seen) \
            == (by_group.flips, by_group.operands_seen)
        assert columnar._rng.random() == by_group._rng.random()
        # the caller's columns are never mutated
        assert op1.tolist() == [op1 for op1, _, _ in flat]

    def test_nothing_to_flip_returns_the_inputs(self):
        op1 = np.array([5, 9], dtype=np.uint64)
        op2 = np.array([0, 3], dtype=np.uint64)
        has_two = np.array([False, True])
        for injector in (FaultInjector(0.0),
                         FaultInjector(1.0, fu_classes=[FUClass.FPAU])):
            view = injector.corrupt_columns(op1, op2, has_two, FUClass.IALU)
            assert view[0] is op1 and view[1] is op2
            assert (injector.flips, injector.operands_seen) == (0, 0)


class TestFaultSweep:
    def test_savings_degrade_monotonically(self):
        """ISSUE acceptance: sweeping 0 -> 0.1 produces a monotone
        degradation of the steering savings."""
        rates = (0.0, 0.02, 0.05, 0.1)
        curve = fault_sweep("compress", rates, fu_class=FUClass.IALU,
                            policy_kind="lut-4", seed=0)
        assert set(curve) == set(rates)
        savings = [curve[r] for r in rates]
        # strictly worse at the endpoints, weakly monotone in between
        # (tiny tolerance: adjacent rates may tie on short streams)
        assert savings[-1] < savings[0]
        for lo, hi in zip(savings[1:], savings):
            assert lo <= hi + 0.01
        assert savings[0] > 0.2  # the clean point is the real lut-4 saving
