"""IssueSource architecture: sources, the drive loop, capture/record,
and the content-addressed trace cache."""

import gzip

import pytest

import repro.streams as streams_module
from repro.batch import pack_stream, write_sidecar
from repro.core.statistics import paper_statistics
from repro.core.steering import OriginalPolicy, PolicyEvaluator, make_policy
from repro.cpu.config import MachineConfig
from repro.cpu.simulator import Simulator, simulate
from repro.cpu.trace import TraceCollector
from repro.cpu.tracefile import read_trace_header
from repro.isa.instructions import FUClass
from repro.streams import (LiveSource, MemorySource, PackedSource,
                           ReplaySource, SyntheticSource, capture,
                           cached_source, drive, record, record_cached,
                           trace_cache_key)
from repro.workloads import workload


def _evaluator(fu_class=FUClass.IALU, num_modules=4, **kwargs):
    return PolicyEvaluator(fu_class, num_modules, OriginalPolicy(), **kwargs)


class TestLiveSource:
    def test_drive_is_one_simulation(self, sum_program):
        source = LiveSource(sum_program)
        collector = TraceCollector()
        result = drive(source, [collector])
        assert result is source.result
        assert result.retired_instructions > 0
        assert collector.groups

    def test_groups_yield_recorded_stream(self, sum_program):
        live_groups = list(LiveSource(sum_program).groups())
        collector = TraceCollector()
        simulate(sum_program, listeners=[collector])
        assert len(live_groups) == len(collector.groups)

    def test_defaults_to_default_config(self, sum_program):
        assert LiveSource(sum_program).config == MachineConfig()

    def test_simulator_resolved_late_for_test_doubles(self, sum_program,
                                                      monkeypatch):
        calls = []

        class CountingSimulator(Simulator):
            def run(self):
                calls.append(self.program.name)
                return super().run()

        monkeypatch.setattr(streams_module, "Simulator", CountingSimulator)
        drive(LiveSource(sum_program), [])
        assert calls == [sum_program.name]


class TestMemorySource:
    def test_redrivable(self, sum_program):
        memory = capture(LiveSource(sum_program), (FUClass.IALU,))
        first, second = _evaluator(), _evaluator()
        drive(memory, [first])
        drive(memory, [second])
        assert first.totals() == second.totals()
        assert len(memory) > 0

    def test_carries_result(self, sum_program):
        memory = capture(LiveSource(sum_program))
        assert memory.result is not None
        assert memory.result.retired_instructions > 0


class TestReplaySource:
    def test_round_trip(self, sum_program, tmp_path):
        path = tmp_path / "sum.trace.gz"
        memory = record(LiveSource(sum_program), path)
        replayed = ReplaySource(path)
        assert replayed.kind == "replay"
        assert replayed.name == sum_program.name
        assert len(list(replayed.groups())) == len(memory)

    def test_header_result_restored(self, sum_program, tmp_path):
        path = tmp_path / "sum.trace.gz"
        memory = record(LiveSource(sum_program), path)
        restored = ReplaySource(path).result
        assert restored is not None
        assert restored.cycles == memory.result.cycles
        assert restored.retired_instructions \
            == memory.result.retired_instructions
        assert restored.ipc == pytest.approx(memory.result.ipc)

    def test_config_fingerprint_exposed(self, sum_program, tmp_path):
        path = tmp_path / "sum.trace.gz"
        record(LiveSource(sum_program), path)
        assert ReplaySource(path).config_fingerprint \
            == MachineConfig().fingerprint()


class TestSyntheticSource:
    def test_deterministic_and_redrivable(self, ialu_stats):
        source = SyntheticSource(ialu_stats, cycles=300, seed=7)
        first, second = _evaluator(), _evaluator()
        drive(source, [first])
        drive(source, [second])
        totals = first.totals()
        assert totals.operations > 0
        assert totals == second.totals()

    def test_seed_changes_stream(self, ialu_stats):
        a, b = _evaluator(), _evaluator()
        drive(SyntheticSource(ialu_stats, cycles=300, seed=1), [a])
        drive(SyntheticSource(ialu_stats, cycles=300, seed=2), [b])
        assert a.totals() != b.totals()


class TestDrive:
    def test_finalizes_consumers(self, sum_program):
        memory = capture(LiveSource(sum_program))
        deferred = _evaluator(include_speculative=False)
        drive(memory, [deferred])
        # a finalized deferred evaluator has settled its buffer
        assert deferred._deferred == []

    def test_finalize_opt_out(self, sum_program):
        memory = capture(LiveSource(sum_program))

        class Probe:
            finalized = False

            def __call__(self, group):
                pass

            def finalize(self):
                self.finalized = True

        probe = Probe()
        drive(memory, [probe], finalize=False)
        assert not probe.finalized
        drive(memory, [probe])
        assert probe.finalized


class TestCapture:
    def test_preserves_final_wrong_path_flags(self):
        program = workload("go").build(1)
        memory = capture(LiveSource(program))
        flagged = sum(1 for group in memory.groups()
                      for op in group.ops if op.speculative)
        collector = TraceCollector()
        simulate(program, listeners=[collector])
        expected = sum(1 for group in collector.groups
                       for op in group.ops if op.speculative)
        assert flagged == expected > 0

    def test_extra_consumers_share_the_single_pass(self, sum_program,
                                                   monkeypatch):
        runs = []

        class CountingSimulator(Simulator):
            def run(self):
                runs.append(1)
                return super().run()

        monkeypatch.setattr(streams_module, "Simulator", CountingSimulator)
        rider = _evaluator()
        memory = capture(LiveSource(sum_program), extra_consumers=[rider])
        assert len(runs) == 1
        replayer = _evaluator()
        drive(memory, [replayer])
        assert rider.totals() == replayer.totals()


class TestRecord:
    def test_header_carries_cache_metadata(self, sum_program, tmp_path):
        path = tmp_path / "sum.trace.gz"
        record(LiveSource(sum_program), path, fu_classes=(FUClass.IALU,))
        header = read_trace_header(path)
        assert header["version"] == 2
        assert header["source"] == "live"
        assert header["config"] == MachineConfig().fingerprint()
        assert header["fu_classes"] == ["ialu"]
        assert header["result"]["retired_instructions"] > 0


class TestTraceCacheKey:
    def test_name_is_not_content(self):
        from repro.isa.assembler import assemble
        source = ".text\naddi r1, r0, 5\nhalt\n"
        config = MachineConfig()
        assert trace_cache_key(assemble(source, name="a"), config) \
            == trace_cache_key(assemble(source, name="b"), config)

    def test_varies_with_config_and_scope(self, sum_program):
        config = MachineConfig()
        narrow = MachineConfig(fetch_width=2, dispatch_width=2,
                               retire_width=2, rob_entries=16)
        base = trace_cache_key(sum_program, config)
        assert trace_cache_key(sum_program, narrow) != base
        assert trace_cache_key(sum_program, config,
                               (FUClass.IALU,)) != base
        assert base.endswith("-all")

    def test_abort_limits_key_the_cache(self, sum_program):
        permissive = MachineConfig()
        tight = MachineConfig(watchdog_cycles=6)
        assert trace_cache_key(sum_program, tight) \
            != trace_cache_key(sum_program, permissive)

    def test_varies_with_program_content(self, sum_program, fp_program):
        config = MachineConfig()
        assert trace_cache_key(sum_program, config) \
            != trace_cache_key(fp_program, config)


class TestTraceCache:
    def test_miss_then_hit(self, sum_program, tmp_path):
        config = MachineConfig()
        assert cached_source(sum_program, config, tmp_path) is None
        recorded = record_cached(sum_program, config, tmp_path)
        found = cached_source(sum_program, config, tmp_path)
        assert found is not None
        assert found.n_groups == recorded.n_groups > 0
        key = trace_cache_key(sum_program, config)
        assert [p.name for p in tmp_path.iterdir()] == [f"{key}.pack"]

    def test_corrupt_entry_is_a_miss(self, sum_program, tmp_path):
        config = MachineConfig()
        record_cached(sum_program, config, tmp_path)
        key = trace_cache_key(sum_program, config)
        path = tmp_path / f"{key}.pack"
        path.write_bytes(b"not a pack file")
        assert cached_source(sum_program, config, tmp_path) is None

    def test_fingerprint_mismatch_is_a_miss(self, sum_program, tmp_path):
        config = MachineConfig()
        key = trace_cache_key(sum_program, config)
        memory = capture(LiveSource(sum_program, config))
        write_sidecar(tmp_path / f"{key}.pack",
                      pack_stream(memory.groups(), result=memory.result),
                      config_fingerprint="feedfacefeedface")
        assert cached_source(sum_program, config, tmp_path) is None

    def test_entry_without_run_summary_is_a_miss(self, sum_program,
                                                 tmp_path):
        config = MachineConfig()
        key = trace_cache_key(sum_program, config)
        memory = capture(LiveSource(sum_program, config))
        write_sidecar(tmp_path / f"{key}.pack", pack_stream(memory.groups()),
                      config_fingerprint=config.fingerprint())
        assert cached_source(sum_program, config, tmp_path) is None

    def test_hit_carries_the_run_summary(self, sum_program, tmp_path):
        config = MachineConfig()
        recorded = record_cached(sum_program, config, tmp_path)
        found = cached_source(sum_program, config, tmp_path)
        assert found.result.to_dict() == recorded.result.to_dict()
        assert found.result.telemetry_counters() \
            == recorded.result.telemetry_counters()
        assert found.result.cycles > 0

    def test_hit_replays_identical_totals(self, sum_program, tmp_path):
        config = MachineConfig()
        live = _evaluator()
        drive(LiveSource(sum_program, config), [live])
        record_cached(sum_program, config, tmp_path)
        replayed = _evaluator()
        found = cached_source(sum_program, config, tmp_path)
        result = drive(PackedSource(found), [replayed])
        assert replayed.totals() == live.totals()
        assert result is found.result
