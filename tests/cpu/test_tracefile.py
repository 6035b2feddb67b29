"""Trace persistence tests."""

import gzip
import json

import pytest

from repro.cpu.simulator import simulate
from repro.cpu.trace import TraceCollector
from repro.cpu.tracefile import (TraceFormatError, load_trace,
                                 read_trace_header, write_trace)
from repro.core.steering import OriginalPolicy, PolicyEvaluator
from repro.isa.instructions import FUClass
from repro.streams import LiveSource, ReplaySource, drive, record


class TestRoundTrip:
    def test_save_and_load_exact(self, sum_program, tmp_path):
        collector = TraceCollector()
        simulate(sum_program, listeners=[collector])
        path = tmp_path / "trace.jsonl.gz"
        count = write_trace(path, collector.groups, name="sum")
        assert count == len(collector.groups)

        loaded = list(load_trace(path))
        assert len(loaded) == len(collector.groups)
        for original, restored in zip(collector.groups, loaded):
            assert restored.cycle == original.cycle
            assert restored.fu_class is original.fu_class
            assert restored.ops == original.ops

    def test_post_run_save_preserves_wrong_path_flags(self, tmp_path):
        from repro.workloads import workload
        collector = TraceCollector()
        simulate(workload("go").build(1), listeners=[collector])
        flagged = sum(1 for g in collector.groups
                      for op in g.ops if op.speculative)
        assert flagged > 0
        path = tmp_path / "final.jsonl.gz"
        write_trace(path, collector.groups)
        reloaded = sum(1 for g in load_trace(path)
                       for op in g.ops if op.speculative)
        assert reloaded == flagged

    def test_fu_class_filter(self, sum_program, tmp_path):
        path = tmp_path / "lsu.jsonl.gz"
        record(LiveSource(sum_program), path, fu_classes=[FUClass.LSU])
        groups = list(load_trace(path))
        assert groups
        assert all(g.fu_class is FUClass.LSU for g in groups)
        assert read_trace_header(path)["fu_classes"] == ["lsu"]

    def test_header_metadata(self, sum_program, tmp_path):
        path = tmp_path / "meta.jsonl.gz"
        collector = TraceCollector()
        simulate(sum_program, listeners=[collector])
        write_trace(path, collector.groups, name="sum-loop")
        header = read_trace_header(path)
        assert header["name"] == "sum-loop"
        assert header["version"] == 2


class TestReplay:
    def test_replay_equals_live_evaluation(self, sum_program, tmp_path):
        path = tmp_path / "replay.jsonl.gz"
        live = PolicyEvaluator(FUClass.IALU, 4, OriginalPolicy())
        memory = record(LiveSource(sum_program), path,
                        extra_consumers=[live])

        replayed = PolicyEvaluator(FUClass.IALU, 4, OriginalPolicy())
        collector = TraceCollector()
        drive(ReplaySource(path), [replayed, collector])
        assert len(collector.groups) == len(memory)
        assert replayed.totals().switched_bits \
            == live.totals().switched_bits
        assert replayed.totals().operations == live.totals().operations


class TestVersioning:
    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.jsonl.gz"
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps({"version": 99}) + "\n")
        with pytest.raises(ValueError, match="version"):
            read_trace_header(path)
        with pytest.raises(ValueError, match="version"):
            list(load_trace(path))

    def test_rejects_next_version_specifically(self, tmp_path):
        from repro.cpu.tracefile import (FORMAT_VERSION, SUPPORTED_VERSIONS,
                                         TraceFormatError)
        future = FORMAT_VERSION + 1
        assert future not in SUPPORTED_VERSIONS
        path = tmp_path / "future.jsonl.gz"
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps({"version": future}) + "\n")
        with pytest.raises(TraceFormatError, match=str(future)):
            read_trace_header(path)

    def _write_v1_trace(self, path, sum_program):
        """A byte-faithful version-1 trace: header without the v2
        config/source/result keys, identical group lines."""
        collector = TraceCollector()
        simulate(sum_program, listeners=[collector])
        from repro.cpu.tracefile import _encode_group
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps({"version": 1, "name": "legacy",
                                     "fu_classes": None}) + "\n")
            for group in collector.groups:
                handle.write(_encode_group(group) + "\n")
        return collector.groups

    def test_v1_trace_still_replays(self, sum_program, tmp_path):
        path = tmp_path / "v1.jsonl.gz"
        groups = self._write_v1_trace(path, sum_program)
        header = read_trace_header(path)
        assert header["version"] == 1
        loaded = list(load_trace(path))
        assert len(loaded) == len(groups)
        live = PolicyEvaluator(FUClass.IALU, 4, OriginalPolicy())
        for group in groups:
            live(group)
        replayed = PolicyEvaluator(FUClass.IALU, 4, OriginalPolicy())
        drive(ReplaySource(path), [replayed])
        assert replayed.totals() == live.totals()

    def test_v1_trace_as_replay_source(self, sum_program, tmp_path):
        from repro.streams import ReplaySource
        path = tmp_path / "v1.jsonl.gz"
        self._write_v1_trace(path, sum_program)
        source = ReplaySource(path)
        # pre-cache headers carry no fingerprint or run summary
        assert source.config_fingerprint is None
        assert source.result is None
        assert source.name == "legacy"
        assert len(list(source.groups())) > 0


class TestCorruption:
    """Hardening against the damage long campaigns actually hit: every
    failure mode raises TraceFormatError naming the file and line."""

    def write_good_trace(self, tmp_path):
        from repro.workloads import workload
        collector = TraceCollector()
        simulate(workload("go").build(1), listeners=[collector])
        path = tmp_path / "good.jsonl.gz"
        write_trace(path, collector.groups)
        return path

    def test_error_is_a_value_error(self):
        # callers that caught ValueError before the hardening still work
        assert issubclass(TraceFormatError, ValueError)

    def test_truncated_gzip_stream(self, tmp_path):
        path = self.write_good_trace(tmp_path)
        data = path.read_bytes()
        assert len(data) > 200
        path.write_bytes(data[:len(data) // 2])  # a killed writer
        with pytest.raises(TraceFormatError) as exc_info:
            list(load_trace(path))
        assert str(path) in str(exc_info.value)
        assert exc_info.value.path == str(path)

    def test_not_gzip_at_all(self, tmp_path):
        path = tmp_path / "plain.jsonl.gz"
        path.write_bytes(b"this is not a gzip container\n")
        with pytest.raises(TraceFormatError) as exc_info:
            read_trace_header(path)
        assert str(path) in str(exc_info.value)
        assert exc_info.value.line == 0  # not tied to a specific line
        with pytest.raises(TraceFormatError):
            list(load_trace(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl.gz"
        with gzip.open(path, "wt"):
            pass
        with pytest.raises(TraceFormatError, match="empty file"):
            read_trace_header(path)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "garbled.jsonl.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("{{{ not json\n")
        with pytest.raises(TraceFormatError, match="line 1"):
            read_trace_header(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "headerless.jsonl.gz"
        with gzip.open(path, "wt") as handle:
            handle.write('[1, "ialu", []]\n')  # a group where the
            handle.write('[2, "ialu", []]\n')  # header should be
        with pytest.raises(TraceFormatError, match="missing header"):
            list(load_trace(path))

    def test_corrupt_json_line_reports_line_number(self, tmp_path):
        path = tmp_path / "corrupt.jsonl.gz"
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps({"version": 1, "name": "t",
                                     "fu_classes": None}) + "\n")
            handle.write('[1, "ialu", [["add", "5", "9", 1, 0, 0, 0, 0]]]\n')
            handle.write('[2, "ialu", [["add", "5"\n')  # torn mid-group
        with pytest.raises(TraceFormatError, match="line 3") as exc_info:
            list(load_trace(path))
        assert exc_info.value.line == 3

    def test_structurally_wrong_group(self, tmp_path):
        path = tmp_path / "shape.jsonl.gz"
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps({"version": 1}) + "\n")
            handle.write('{"cycle": 1}\n')  # valid JSON, wrong shape
        with pytest.raises(TraceFormatError, match="corrupt issue group"):
            list(load_trace(path))

    def test_groups_before_the_damage_are_yielded(self, tmp_path):
        path = tmp_path / "partial.jsonl.gz"
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps({"version": 1}) + "\n")
            handle.write('[1, "ialu", [["add", "5", "9", 1, 0, 0, 0, 0]]]\n')
            handle.write("garbage\n")
        reader = load_trace(path)
        first = next(reader)
        assert first.cycle == 1 and len(first.ops) == 1
        with pytest.raises(TraceFormatError):
            next(reader)
