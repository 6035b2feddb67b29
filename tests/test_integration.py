"""End-to-end integration tests across the whole stack."""

import pytest

from repro.analysis.bit_patterns import BitPatternCollector
from repro.analysis.energy import measure_statistics
from repro.analysis.module_usage import ModuleUsageCollector
from repro.compiler import swap_optimize
from repro.core import (HardwareSwapper, choose_swap_case, make_policy,
                        scheme_for)
from repro.core.steering import OriginalPolicy, PolicyEvaluator
from repro.cpu import Simulator, TraceCollector, run_program
from repro.isa.instructions import FUClass
from repro.streams import LiveSource, ReplaySource, drive, record
from repro.workloads import all_workloads, workload


class TestMeasureThenSteer:
    """The self-consistent loop: measure a workload's statistics, build
    the steering hardware from them, then run it on the same workload."""

    @pytest.mark.parametrize("name,fu_class", [
        ("m88ksim", FUClass.IALU),
        ("swim", FUClass.FPAU),
    ])
    def test_self_tuned_steering_saves_energy(self, name, fu_class):
        program = workload(name).build(1)
        stats, _, _ = measure_statistics([program], fu_class)
        policy = make_policy("lut-4", fu_class, 4, stats=stats)
        steered = PolicyEvaluator(fu_class, 4, policy)
        fcfs = PolicyEvaluator(fu_class, 4, OriginalPolicy())
        sim = Simulator(program)
        sim.add_listener(steered)
        sim.add_listener(fcfs)
        sim.run()
        assert steered.totals().switched_bits \
            <= fcfs.totals().switched_bits

    def test_degenerate_case_distribution_is_near_neutral(self):
        """'go' at scale 1 is ~97% case 00: with nothing to separate,
        steering must stay within noise of FCFS — the technique's
        honest boundary (its gain comes from case diversity)."""
        program = workload("go").build(1)
        stats, _, _ = measure_statistics([program], FUClass.IALU)
        assert stats.case_freq(0b00) > 0.9  # premise: degenerate
        policy = make_policy("lut-4", FUClass.IALU, 4, stats=stats)
        steered = PolicyEvaluator(FUClass.IALU, 4, policy)
        fcfs = PolicyEvaluator(FUClass.IALU, 4, OriginalPolicy())
        sim = Simulator(program)
        sim.add_listener(steered)
        sim.add_listener(fcfs)
        sim.run()
        ratio = steered.totals().switched_bits \
            / fcfs.totals().switched_bits
        assert ratio == pytest.approx(1.0, abs=0.03)


class TestCompilerSwapPreservesEverything:
    @pytest.mark.parametrize("name",
                             [w.name for w in all_workloads()])
    def test_swapped_kernel_is_architecturally_identical(self, name):
        load = workload(name)
        program = load.build(1)
        swapped, _report = swap_optimize(program)
        result = run_program(swapped)
        load.check(program, result, 1)


class TestTraceReplayFidelity:
    def test_policy_scores_identical_live_and_replayed(self, tmp_path):
        """A stored trace must reproduce a policy's score exactly."""
        program = workload("cc1").build(1)
        fu_class = FUClass.IALU
        stats, _, _ = measure_statistics([program], fu_class)
        scheme = scheme_for(fu_class)

        def make_evaluator():
            policy = make_policy("lut-4", fu_class, 4, stats=stats)
            swapper = HardwareSwapper(scheme, choose_swap_case(stats))
            return PolicyEvaluator(fu_class, 4, policy,
                                   pre_swapper=swapper)

        live = make_evaluator()
        path = tmp_path / "cc1.trc.gz"
        record(LiveSource(program), path, extra_consumers=[live])

        replayed = make_evaluator()
        drive(ReplaySource(path), [replayed])
        assert replayed.totals().switched_bits \
            == live.totals().switched_bits
        assert replayed.totals().hardware_swaps \
            == live.totals().hardware_swaps


class TestCollectorsAgreeWithRawTrace:
    def test_bit_pattern_totals_match_issue_counts(self):
        program = workload("perl").build(1)
        collector = BitPatternCollector(FUClass.IALU)
        trace = TraceCollector([FUClass.IALU])
        sim = Simulator(program)
        sim.add_listener(collector)
        sim.add_listener(trace)
        result = sim.run()
        assert collector.total_ops == trace.op_count()
        assert collector.total_ops == result.issue_counts[FUClass.IALU]

    def test_usage_busy_cycles_match_group_count(self):
        program = workload("perl").build(1)
        usage = ModuleUsageCollector([FUClass.IALU])
        trace = TraceCollector([FUClass.IALU])
        sim = Simulator(program)
        sim.add_listener(usage)
        sim.add_listener(trace)
        sim.run()
        assert usage.busy_cycles(FUClass.IALU) == len(trace.groups)


class TestEvaluatorStreamInvariants:
    def test_every_assignment_is_a_valid_permutation(self):
        """Over a whole kernel, every policy must map each group to
        distinct in-range modules (checked via a wrapping policy)."""
        from repro.core.statistics import paper_statistics

        program = workload("ijpeg").build(1)
        stats = paper_statistics(FUClass.IALU)
        inner = make_policy("lut-8", FUClass.IALU, 4, stats=stats)
        seen = []

        class Checking:
            name = "checking"

            def assign(self, ops, power):
                assignment = inner.assign(ops, power)
                assert len(set(assignment.modules)) == len(ops)
                assert all(0 <= m < 4 for m in assignment.modules)
                seen.append(len(ops))
                return assignment

        evaluator = PolicyEvaluator(FUClass.IALU, 4, Checking())
        sim = Simulator(program)
        sim.add_listener(evaluator)
        sim.run()
        assert seen and max(seen) <= 4
