"""LRU trace-cache pruning: size budget, recency, protection.

An entry is one pack file.  The pruner must evict strictly
oldest-first, survive damaged/concurrently-vanishing files, and —
critically — never evict the entry an in-flight replay has protected,
even when that leaves the cache over budget.  Every cache hit refreshes
its entry's recency, whichever engine replays it.
"""

import dataclasses
import os
import time

from repro.analysis.energy import run_figure4
from repro.cpu.config import MachineConfig
from repro.isa.instructions import FUClass
from repro.runner.campaign import CampaignSpec, execute_task
from repro.streams import (cache_entry_path, cached_or_record, cached_source,
                           prune_trace_cache)
from repro.workloads import workload


def _make_entry(cache_dir, index, size_kb=64, age=0):
    """Fabricate a cache entry with a controlled size and mtime."""
    entry = cache_entry_path(cache_dir, f"prog{index}-cfg-all")
    entry.write_bytes(b"x" * (size_kb * 1024))
    stamp = time.time() - age
    os.utime(entry, (stamp, stamp))
    return entry


def _age(paths, seconds=10_000):
    """Backdate entries so a later touch is unmistakable."""
    stamp = time.time() - seconds
    for path in paths:
        os.utime(path, (stamp, stamp))
    return {path: path.stat().st_mtime for path in paths}


class TestPruning:
    def test_under_limit_deletes_nothing(self, tmp_path):
        for i in range(3):
            _make_entry(tmp_path, i, size_kb=16)
        assert prune_trace_cache(tmp_path, limit_mb=1.0) == []
        assert len(list(tmp_path.glob("*.pack"))) == 3

    def test_oldest_entries_go_first(self, tmp_path):
        # 4 entries x 64 KiB = 256 KiB; a 160 KiB limit forces out the
        # two oldest
        entries = [_make_entry(tmp_path, i, age=(4 - i) * 100)
                   for i in range(4)]
        deleted = prune_trace_cache(tmp_path, limit_mb=160 / 1024)
        assert deleted == entries[:2]
        for entry in entries[:2]:
            assert not entry.exists()
        assert entries[2].exists() and entries[3].exists()

    def test_other_files_are_not_entries(self, tmp_path):
        # lock files and stray files are neither counted nor evicted
        (tmp_path / "prog0-cfg-all.lock").write_bytes(b"l" * 4096)
        (tmp_path / "notes.txt").write_bytes(b"n" * 4096)
        entry = _make_entry(tmp_path, 0)
        assert prune_trace_cache(tmp_path, limit_mb=0) == [entry]
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["notes.txt", "prog0-cfg-all.lock"]

    def test_zero_limit_clears_cache(self, tmp_path):
        for i in range(3):
            _make_entry(tmp_path, i, age=i)
        prune_trace_cache(tmp_path, limit_mb=0)
        assert list(tmp_path.glob("*")) == []

    def test_missing_directory_is_noop(self, tmp_path):
        assert prune_trace_cache(tmp_path / "never", limit_mb=0) == []


class TestProtection:
    def test_protected_entry_survives_zero_limit(self, tmp_path):
        keep = _make_entry(tmp_path, 0, age=1000)  # oldest = first victim
        victim = _make_entry(tmp_path, 1)
        prune_trace_cache(tmp_path, limit_mb=0, protect=[keep])
        assert keep.exists()
        assert not victim.exists()

    def test_deleted_lists_exactly_the_unlinked_paths(self, tmp_path):
        # the return value is the caller's audit trail: every victim,
        # nothing else, no duplicates — and the protected entry appears
        # nowhere in it
        keep = _make_entry(tmp_path, 0, age=1000)
        victims = [_make_entry(tmp_path, i, age=i) for i in (1, 2)]
        deleted = prune_trace_cache(tmp_path, limit_mb=0, protect=[keep])
        assert sorted(deleted) == sorted(victims)
        for path in victims:
            assert not path.exists()
        assert keep.exists()

    def test_pruning_never_evicts_entry_being_replayed(self, tmp_path):
        # the real contract: record a genuine entry, open it for replay,
        # prune to zero with it protected — the replay must still hit
        program = workload("compress").build(1)
        config = MachineConfig()
        packed, state = cached_or_record(program, config, tmp_path)
        assert state == "miss"
        (in_use,) = tmp_path.glob("*.pack")
        for i in range(3):
            _make_entry(tmp_path, i, age=(i + 1) * 100)
        prune_trace_cache(tmp_path, limit_mb=0, protect=[in_use])
        assert in_use.exists()
        assert list(tmp_path.glob("prog*")) == []
        # and the protected entry still replays, bit-identically
        again, state = cached_or_record(program, config, tmp_path)
        assert state == "hit"
        assert list(again.iter_groups())[-1].cycle == \
            list(packed.iter_groups())[-1].cycle
        assert cached_source(program, config, tmp_path) is not None


class TestRecency:
    """A hit on either engine path must touch its entry, or
    ``--cache-limit-mb`` evicts the streams those runs replay first."""

    def test_object_engine_figure4_hit_refreshes_recency(self, tmp_path):
        kwargs = dict(workloads=[workload("compress")], scale=1,
                      schemes=("original",), swap_modes=("none",),
                      trace_cache_dir=str(tmp_path), engine="object")
        run_figure4(FUClass.IALU, **kwargs)
        aged = _age(list(tmp_path.glob("*.pack")))
        warm = run_figure4(FUClass.IALU, **kwargs)
        assert warm.cache_hits == 1
        for path, before in aged.items():
            assert path.stat().st_mtime > before

    def test_faulted_campaign_hit_refreshes_recency(self, tmp_path):
        spec = CampaignSpec(workloads=("compress",),
                            policies=("original", "lut-4"),
                            fault_rates=(0.0, 0.2))
        cold, faulted = [dataclasses.replace(task,
                                             trace_cache_dir=str(tmp_path))
                         for task in spec.tasks()]
        assert execute_task(cold)["trace_cache"] == "miss"
        aged = _age(list(tmp_path.glob("*.pack")))
        outcome = execute_task(faulted)
        assert outcome["trace_cache"] == "hit"
        assert outcome["fault_flips"] > 0
        for path, before in aged.items():
            assert path.stat().st_mtime > before
