"""Parallel figure generation: byte-stability and failure loudness.

``figure4 --jobs N`` must produce an identical ``Figure4Result`` for
every N (and for the serial driver), because partials are integer sums
merged in workload order — never arrival order.
"""

import pytest

from repro.analysis import run_figure4
from repro.analysis.parallel import ParallelFigureRunner
from repro.isa.instructions import FUClass
from repro.runner.pool import CRASH_ENV
from repro.workloads import workload

WORKLOADS = ("compress", "li")


def _run(jobs, cache_dir, **kwargs):
    return run_figure4(FUClass.IALU,
                       workloads=[workload(w) for w in WORKLOADS],
                       scale=1, jobs=jobs, trace_cache_dir=cache_dir,
                       **kwargs)


def _flat(result):
    """Everything the rendered figure is built from, as one structure."""
    return {
        "workloads": result.workload_names,
        "cells": {key: (cell.switched_bits, cell.operations,
                        cell.hardware_swaps)
                  for key, cell in result.cells.items()},
        "order": list(result.cells),
        "per_workload": result.per_workload,
        "stats": repr(result.statistics),
        "grid": result.grid(),
    }


class TestByteStability:
    def test_identical_for_any_job_count(self, tmp_path):
        serial = _run(1, tmp_path)
        two = _run(2, tmp_path)
        three = _run(3, tmp_path)
        assert _flat(two) == _flat(serial)
        assert _flat(three) == _flat(serial)

    @pytest.mark.parametrize("stats_source", ["measured", "paper"])
    @pytest.mark.parametrize("cached", [True, False],
                             ids=["cache-dir", "no-cache-dir"])
    def test_each_version_simulated_once_for_any_job_count(
            self, tmp_path, cached, stats_source):
        """The serial in-process run and the pool run over the caller's
        or a temporary cache produce one panel from one simulation per
        program version."""
        # each workload plus its compiler rewrite, except that under the
        # paper's swap case compress's rewrite changes nothing
        versions = {"measured": 4, "paper": 3}[stats_source]
        results = {jobs: _run(jobs, tmp_path / f"jobs-{jobs}" if cached
                              else None, stats_source=stats_source)
                   for jobs in (1, 2, 3)}
        for jobs, result in results.items():
            assert result.simulations == versions, jobs
            assert result.cache_misses == (versions if cached else 0), jobs
            assert result.cache_hits == 0, jobs
            assert _flat(result) == _flat(results[1]), jobs

    def test_engines_agree_under_parallelism(self, tmp_path):
        batch = _run(2, tmp_path, engine="batch")
        obj = _run(2, tmp_path, engine="object")
        assert _flat(batch) == _flat(obj)

    def test_paper_stats_source(self, tmp_path):
        serial = _run(1, tmp_path, stats_source="paper")
        par = _run(2, tmp_path, stats_source="paper")
        assert _flat(par) == _flat(serial)

    def test_warm_cache_reports_all_hits(self, tmp_path):
        _run(1, tmp_path)
        warm = _run(2, tmp_path)
        assert warm.cache_misses == 0
        assert warm.cache_hits == 4  # two workloads + their rewrites
        assert warm.simulations == 0


class TestFailurePath:
    def test_failed_workload_names_surface(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CRASH_ENV, "li")
        runner = ParallelFigureRunner(jobs=2, retries=0)
        with pytest.raises(RuntimeError, match="li"):
            runner.run_figure4(FUClass.IALU,
                               workloads=[workload(w) for w in WORKLOADS],
                               scale=1, trace_cache_dir=tmp_path)

    def test_bad_engine_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="engine"):
            _run(2, tmp_path, engine="vectorised")
        with pytest.raises(ValueError, match="engine"):
            _run(1, tmp_path, engine="vectorised")
