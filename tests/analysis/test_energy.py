"""Figure 4 experiment driver tests (reduced scale)."""

import pytest

from repro.analysis.energy import (chip_level_estimate, measure_statistics,
                                   run_figure4, run_figure4_synthetic)
from repro.core.statistics import paper_statistics
from repro.isa.instructions import FUClass
from repro.workloads import workload


@pytest.fixture(scope="module")
def ialu_panel():
    # two small integer workloads keep the test quick
    loads = [workload("compress"), workload("cc1")]
    return run_figure4(FUClass.IALU, workloads=loads, scale=1,
                       schemes=("1bit-ham", "lut-4", "original"),
                       swap_modes=("none", "hw", "hw+compiler"))


class TestRunFigure4:
    def test_baseline_zero_reduction(self, ialu_panel):
        assert ialu_panel.reduction("original", "none") == 0.0
        assert ialu_panel.baseline_bits > 0

    def test_steering_reduces_energy(self, ialu_panel):
        assert ialu_panel.reduction("lut-4", "none") > 0.0
        assert ialu_panel.reduction("1bit-ham", "none") > 0.0

    def test_onebit_ham_bounds_lut(self, ialu_panel):
        assert ialu_panel.reduction("1bit-ham", "hw") \
            >= ialu_panel.reduction("lut-4", "hw") - 0.02

    def test_all_requested_cells_present(self, ialu_panel):
        for scheme in ("1bit-ham", "lut-4", "original"):
            for mode in ("none", "hw", "hw+compiler"):
                assert (scheme, mode) in ialu_panel.cells

    def test_operation_counts_match_across_cells(self, ialu_panel):
        ops = {cell.operations for key, cell in ialu_panel.cells.items()
               if key[1] in ("none", "hw")}
        assert len(ops) == 1  # every policy saw the same stream

    def test_grid_rows(self, ialu_panel):
        rows = dict(ialu_panel.grid())
        assert "lut-4" in rows
        assert "none" in rows["lut-4"]

    def test_invalid_stats_source(self):
        with pytest.raises(ValueError):
            run_figure4(FUClass.IALU, workloads=[workload("cc1")],
                        stats_source="vibes")


class TestSimulateOnce:
    """The tentpole invariant: exactly one ``Simulator.run()`` per
    program version, however many evaluator sets the panel needs."""

    @pytest.fixture
    def counting(self, monkeypatch):
        import repro.streams as streams_module
        from repro.cpu.simulator import Simulator

        runs = []

        class CountingSimulator(Simulator):
            def run(self):
                runs.append(self.program.name)
                return super().run()

        monkeypatch.setattr(streams_module, "Simulator", CountingSimulator)
        return runs

    def test_one_simulation_per_program_version(self, counting):
        loads = [workload("compress"), workload("li")]
        panel = run_figure4(FUClass.IALU, workloads=loads, scale=1,
                            schemes=("original", "lut-4"),
                            swap_modes=("none", "hw"))
        assert sorted(counting) == ["compress", "li"]
        assert panel.simulations == 2

    def test_compiler_swapped_versions_are_distinct(self, counting):
        loads = [workload("compress")]
        panel = run_figure4(
            FUClass.IALU, workloads=loads, scale=1,
            schemes=("original", "lut-4"),
            swap_modes=("none", "hw", "compiler", "hw+compiler"))
        # the rewritten program is its own version: two sims, not four
        assert len(counting) == 2
        assert sorted(counting) == ["compress", "compress+cswap"]
        assert panel.simulations == 2


class TestTraceCache:
    def test_second_run_simulates_nothing(self, tmp_path, monkeypatch):
        import repro.streams as streams_module
        from repro.cpu.simulator import Simulator

        loads = [workload("compress")]
        kwargs = dict(workloads=loads, scale=1,
                      schemes=("original", "lut-4"),
                      swap_modes=("none", "hw"),
                      trace_cache_dir=str(tmp_path))
        cold = run_figure4(FUClass.IALU, **kwargs)
        assert (cold.cache_hits, cold.cache_misses) == (0, 1)
        assert cold.simulations == 1

        class ExplodingSimulator(Simulator):
            def run(self):
                raise AssertionError("cache hit must not simulate")

        monkeypatch.setattr(streams_module, "Simulator", ExplodingSimulator)
        warm = run_figure4(FUClass.IALU, **kwargs)
        assert (warm.cache_hits, warm.cache_misses) == (1, 0)
        assert warm.simulations == 0
        assert warm.cells == cold.cells
        assert warm.per_workload == cold.per_workload

    @pytest.mark.parametrize("engine", ["batch", "object"])
    def test_waits_for_another_writers_lock(self, tmp_path, monkeypatch,
                                            engine):
        """While another writer holds TraceCacheLock on one version, the
        run waits for that writer's entry and replays it."""
        import os
        import threading
        import time

        import repro.streams as streams_module
        from repro.cpu.config import default_config
        from repro.cpu.simulator import Simulator
        from repro.streams import (TraceCacheLock, cache_entry_path,
                                   record_cached, trace_cache_key)

        program = workload("compress").build(1)
        config = default_config()
        fu_classes = (FUClass.IALU,)
        key = trace_cache_key(program, config, fu_classes)
        # the other writer's entry, recorded aside and published under
        # its lock once the run is already waiting
        staging = tmp_path / "staging"
        record_cached(program, config, staging, fu_classes)
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        lock = TraceCacheLock(cache_dir, key)
        assert lock.acquire()

        def publish():
            try:
                time.sleep(0.5)
                os.replace(cache_entry_path(staging, key),
                           cache_entry_path(cache_dir, key))
            finally:
                lock.release()  # never leave the run waiting out the ttl

        runs = []

        class CountingSimulator(Simulator):
            def run(self):
                runs.append(self.program.name)
                return super().run()

        monkeypatch.setattr(streams_module, "Simulator", CountingSimulator)
        writer = threading.Thread(target=publish)
        writer.start()
        try:
            panel = run_figure4(FUClass.IALU,
                                workloads=[workload("compress"),
                                           workload("li")],
                                scale=1, schemes=("original", "lut-4"),
                                swap_modes=("none", "hw"),
                                trace_cache_dir=str(cache_dir),
                                engine=engine)
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert runs == ["li"]
        assert panel.simulations == 1
        assert (panel.cache_hits, panel.cache_misses) == (1, 1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_run_leaves_one_pack_per_program_version(self, tmp_path,
                                                          jobs):
        from repro.cpu.config import default_config
        from repro.streams import cache_entry_path, trace_cache_key

        panel = run_figure4(FUClass.IALU, workloads=[workload("compress")],
                            scale=1, schemes=("original", "lut-4"),
                            swap_modes=("none", "hw", "compiler"),
                            trace_cache_dir=str(tmp_path), jobs=jobs)
        # compress and its compiler rewrite: two versions, two entries
        assert panel.simulations == 2
        names = sorted(path.name for path in tmp_path.iterdir())
        assert len(names) == 2
        assert all(name.endswith(".pack") for name in names)
        plain = cache_entry_path(tmp_path, trace_cache_key(
            workload("compress").build(1), default_config(), (FUClass.IALU,)))
        assert plain.name in names

    def test_warm_run_hashes_each_version_once_per_task(self, tmp_path,
                                                        store_calls):
        kwargs = dict(workloads=[workload("compress"), workload("li")],
                      scale=1, schemes=("original", "lut-4"),
                      swap_modes=("none", "hw"),
                      trace_cache_dir=str(tmp_path))
        run_figure4(FUClass.IALU, **kwargs)
        store_calls.update(fingerprint=0, cached_source=0)
        warm = run_figure4(FUClass.IALU, **kwargs)
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)
        # per workload: the statistics task's key, handed through the
        # fetch to the lookup, and the cells task's key for the
        # in-memory hand-over — one lookup, no re-hash inside the store
        assert store_calls == {"fingerprint": 4, "cached_source": 2}

    def test_cache_off_by_default(self, monkeypatch):
        panel = run_figure4(FUClass.IALU, workloads=[workload("compress")],
                            scale=1, schemes=("original",),
                            swap_modes=("none",))
        assert panel.cache_hits == 0
        assert panel.cache_misses == 0
        assert panel.simulations == 1


class TestMeasureStatistics:
    def test_measured_statistics_well_formed(self):
        program = workload("compress").build(1)
        stats, patterns, usage = measure_statistics([program], FUClass.IALU)
        assert sum(stats.case_comm_freq.values()) == pytest.approx(1.0)
        assert sum(stats.usage.values()) == pytest.approx(1.0)
        assert patterns.total_ops > 0
        assert usage.busy_cycles(FUClass.IALU) > 0


class TestSyntheticFigure4:
    def test_paper_calibrated_shape(self):
        panel = run_figure4_synthetic(
            FUClass.IALU, cycles=4000,
            schemes=("full-ham", "lut-4", "lut-2", "original"))
        assert panel.reduction("lut-4") > 0.05
        assert panel.reduction("lut-4") >= panel.reduction("lut-2") - 0.02
        assert panel.reduction("full-ham", "hw") >= panel.reduction("lut-4")

    def test_fpau_swapping_is_weak(self):
        # Figure 4(b): "the FPAU does not benefit much from swapping"
        panel = run_figure4_synthetic(FUClass.FPAU, cycles=4000,
                                      schemes=("lut-4", "original"),
                                      swap_modes=("none", "hw"))
        gain = (panel.reduction("lut-4", "hw")
                - panel.reduction("lut-4", "none"))
        assert abs(gain) < 0.05

    def test_compiler_mode_rejected(self):
        with pytest.raises(ValueError, match="compiler"):
            run_figure4_synthetic(FUClass.IALU,
                                  swap_modes=("none", "hw+compiler"))


class TestChipEstimate:
    def test_blends_by_baseline_weight(self):
        ialu = run_figure4_synthetic(FUClass.IALU, cycles=2000,
                                     schemes=("lut-4", "original"),
                                     swap_modes=("none", "hw"))
        fpau = run_figure4_synthetic(FUClass.FPAU, cycles=2000,
                                     schemes=("lut-4", "original"),
                                     swap_modes=("none", "hw"))
        estimate = chip_level_estimate(ialu, fpau)
        assert 0.0 < estimate < 0.22
        # the paper lands around 4% of total chip power
        assert estimate == pytest.approx(0.04, abs=0.03)


class TestPerWorkloadBreakdown:
    def test_breakdown_sums_to_totals(self, ialu_panel):
        for key, cell in ialu_panel.cells.items():
            total = sum(cells.get(key, 0)
                        for cells in ialu_panel.per_workload.values())
            assert total == cell.switched_bits, key

    def test_workload_reduction(self, ialu_panel):
        for name in ialu_panel.per_workload:
            value = ialu_panel.workload_reduction(name, "lut-4", "hw")
            assert -1.0 < value < 1.0

    def test_render_per_workload(self, ialu_panel):
        from repro.analysis.report import render_figure4_per_workload
        text = render_figure4_per_workload(ialu_panel)
        assert "Per-workload" in text
        for name in ialu_panel.per_workload:
            assert name in text
