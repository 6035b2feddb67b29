"""Trace layer tests: micro-ops, issue groups, collectors."""

from repro.cpu.simulator import simulate
from repro.cpu.trace import MicroOp, SimulationResult, TraceCollector
from repro.isa.instructions import FUClass, opcode


class TestMicroOp:
    def test_swap_exchanges_operands(self):
        op = MicroOp(opcode("add"), 1, 2, static_index=7)
        swapped = op.swap()
        assert (swapped.op1, swapped.op2) == (2, 1)
        assert swapped.swapped and not op.swapped
        assert swapped.static_index == 7

    def test_double_swap_round_trips(self):
        op = MicroOp(opcode("add"), 1, 2)
        assert op.swap().swap() == op

    def test_hardware_swappable(self):
        assert MicroOp(opcode("add"), 1, 2).hardware_swappable
        assert not MicroOp(opcode("sub"), 1, 2).hardware_swappable
        assert not MicroOp(opcode("add"), 1, 0, has_two=False).hardware_swappable
        # immediate forms never swap, the immediate is port 2 by encoding
        assert not MicroOp(opcode("addi"), 1, 2).hardware_swappable


class TestCollectors:
    def test_trace_collector_filters_classes(self, sum_program):
        everything = TraceCollector()
        only_lsu = TraceCollector([FUClass.LSU])
        simulate(sum_program, listeners=[everything, only_lsu])
        assert everything.op_count() > only_lsu.op_count() > 0
        assert all(g.fu_class is FUClass.LSU for g in only_lsu.groups)
        assert only_lsu.op_count() == everything.op_count(FUClass.LSU)

    def test_groups_are_cycle_ordered(self, sum_program):
        collector = TraceCollector()
        simulate(sum_program, listeners=[collector])
        cycles = [g.cycle for g in collector.groups]
        assert cycles == sorted(cycles)

    def test_groups_for(self, sum_program):
        collector = TraceCollector()
        simulate(sum_program, listeners=[collector])
        ialu = list(collector.groups_for(FUClass.IALU))
        assert ialu and all(g.fu_class is FUClass.IALU for g in ialu)


class TestSimulationResult:
    def test_ipc(self):
        result = SimulationResult(name="x", cycles=10,
                                  retired_instructions=25)
        assert result.ipc == 2.5
        assert SimulationResult(name="y").ipc == 0.0

    def test_issue_counts_cover_all_executed_ops(self, sum_program):
        collector = TraceCollector()
        result = simulate(sum_program, listeners=[collector])
        assert sum(result.issue_counts.values()) == result.executed_ops
        assert collector.op_count() == result.executed_ops
