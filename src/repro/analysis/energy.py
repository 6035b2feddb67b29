"""Energy-reduction experiments: the driver behind Figure 4.

For one FU class, every steering scheme in the paper is evaluated under
three swapping regimes against the same workload suite:

* ``none`` — the scheme alone;
* ``hw`` — plus dynamic hardware swapping (case-based for LUT/Original,
  integrated into the cost matrix for the Hamming policies, exactly as
  Figure 2 allows);
* ``compiler`` / ``hw+compiler`` — the suite is first rewritten by the
  profile-guided static swap pass, then evaluated (optionally with the
  hardware swapper on top).

Each *program version* (a workload, or its compiler-swapped rewrite) is
simulated exactly once: the issue stream is captured through
:mod:`repro.streams` and then *replayed* — for the statistics pass and
for every (scheme, swap) evaluator cell — because evaluation is far
cheaper than simulation and a captured stream is bit-identical to live
listening.  With ``trace_cache_dir`` set, captures are persisted under
content-addressed keys (program + machine-config fingerprints) so later
runs skip simulation entirely.  Reductions are reported against the
paper's baseline: ``original`` steering, no swapping, unmodified
programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..batch import ENGINES, drive_stream, packed_cached
from ..compiler import swap_optimize
from ..cpu.config import MachineConfig, default_config
from ..core.info_bits import InfoBitScheme, scheme_for
from ..core.registry import REGISTRY
from ..core.statistics import CaseStatistics, paper_statistics
from ..core.steering import PolicyEvaluator, make_policy
from ..core.swapping import HardwareSwapper, choose_swap_case
from ..isa.instructions import FUClass
from ..isa.program import Program
from ..streams import (IssueSource, LiveSource, MemorySource, SyntheticSource,
                       cached_source, capture, drive, prune_trace_cache,
                       record_cached, trace_cache_key)
from ..workloads.base import Workload, float_suite, integer_suite
from .bit_patterns import BitPatternCollector
from .module_usage import ModuleUsageCollector

#: the default figure-4 grid, derived from the policy registry: every
#: family's grid_kinds in grid order (so registering a family with grid
#: metadata adds its rows here with no edit)
SCHEMES = REGISTRY.grid_kinds()
SWAP_MODES = ("none", "hw", "compiler", "hw+compiler")

CellKey = Tuple[str, str]  # (scheme, swap mode)


@dataclass
class CellResult:
    """Accumulated energy for one (scheme, swap) grid cell."""

    scheme: str
    swap: str
    switched_bits: int = 0
    operations: int = 0
    hardware_swaps: int = 0


@dataclass
class Figure4Result:
    """One Figure 4 panel: grid of energy reductions for an FU class."""

    fu_class: FUClass
    workload_names: List[str]
    statistics: CaseStatistics
    cells: Dict[CellKey, CellResult] = field(default_factory=dict)
    # per-workload switched bits: workload -> cell -> bits
    per_workload: Dict[str, Dict[CellKey, int]] = field(default_factory=dict)
    # provenance of the issue streams this panel was evaluated on:
    # simulations actually run, plus trace-cache hits/misses when a
    # cache directory was in play (hits + misses = program versions)
    simulations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def baseline_bits(self) -> int:
        return self.cells[("original", "none")].switched_bits

    def workload_reduction(self, name: str, scheme: str,
                           swap: str = "none") -> float:
        """Reduction of one (scheme, swap) cell on one workload alone."""
        cells = self.per_workload[name]
        baseline = cells[("original", "none")]
        if not baseline:
            return 0.0
        return 1.0 - cells[(scheme, swap)] / baseline

    def reduction(self, scheme: str, swap: str = "none") -> float:
        """Fractional reduction vs the Original/no-swap baseline."""
        baseline = self.baseline_bits
        if not baseline:
            return 0.0
        return 1.0 - self.cells[(scheme, swap)].switched_bits / baseline

    def grid(self) -> List[Tuple[str, Dict[str, float]]]:
        """Rows of (scheme, {swap mode: reduction}) for reporting.

        Rows are the schemes actually evaluated (not the module-level
        default), ordered by the registry's grid order so custom
        ``schemes=`` runs render consistently.
        """
        present: List[str] = []
        for scheme, _swap in self.cells:
            if scheme not in present:
                present.append(scheme)
        present.sort(key=REGISTRY.grid_sort_key)
        rows = []
        for scheme in present:
            row = {swap: self.reduction(scheme, swap)
                   for swap in SWAP_MODES if (scheme, swap) in self.cells}
            rows.append((scheme, row))
        return rows


def measure_statistics(programs: Sequence[Program],
                       fu_class: FUClass,
                       config: Optional[MachineConfig] = None,
                       scheme: Optional[InfoBitScheme] = None
                       ) -> Tuple[CaseStatistics, BitPatternCollector,
                                  ModuleUsageCollector]:
    """Simulate the suite once to measure Table 1/2 style statistics."""
    config = config or default_config()
    sources = [LiveSource(program, config) for program in programs]
    return statistics_from_sources(sources, fu_class, config, scheme)


def statistics_from_sources(sources: Sequence[IssueSource],
                            fu_class: FUClass,
                            config: Optional[MachineConfig] = None,
                            scheme: Optional[InfoBitScheme] = None
                            ) -> Tuple[CaseStatistics, BitPatternCollector,
                                       ModuleUsageCollector]:
    """Measure Table 1/2 statistics from any issue sources — live,
    captured, replayed, or synthetic."""
    config = config or default_config()
    patterns = BitPatternCollector(fu_class, scheme=scheme)
    usage = ModuleUsageCollector([fu_class])
    for source in sources:
        # packed streams go through the fused statistics kernels,
        # object streams through the classic loop — same totals either
        # way (tests/batch/test_parity.py)
        drive_stream(source, [patterns, usage])
    distribution = usage.distribution(fu_class,
                                      max_width=config.modules(fu_class))
    stats = patterns.to_statistics(distribution)
    return stats, patterns, usage


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, not {engine!r}")


def _captured_stream(program: Program, config: MachineConfig,
                     fu_class: FUClass, cache_dir, engine: str = "object"
                     ) -> Tuple[IssueSource, bool]:
    """One issue stream per program version, simulated at most once.

    Without a cache directory this is a plain in-memory capture (one
    simulation).  With one, a recorded trace under the content-addressed
    key is replayed instead, and a miss both simulates and populates the
    cache.  Returns ``(stream, cache_hit)``.

    With the ``"batch"`` engine the stream comes back as a
    :class:`~repro.batch.columns.PackedTrace` (mmapped from the cache
    sidecar on a warm hit — the gzip JSON trace is not parsed at all);
    ``"object"`` keeps the classic decoded stream as the reference path.
    """
    fu_classes = (fu_class,)
    if engine == "batch":
        return packed_cached(program, config, cache_dir, fu_classes)
    if cache_dir is not None:
        found = cached_source(program, config, cache_dir, fu_classes)
        if found is not None:
            # the replay is re-drivable and streams from disk, so each
            # pass holds one group at a time — never the whole decoded
            # stream (compiler-swapped versions need only one pass, and
            # peak RSS stays flat however long the trace is)
            return found, True
        return record_cached(program, config, cache_dir, fu_classes), False
    return capture(LiveSource(program, config), fu_classes), False


def _build_evaluators(fu_class: FUClass, num_modules: int,
                      stats: CaseStatistics, scheme: InfoBitScheme,
                      schemes: Sequence[str], with_hw_swap: bool
                      ) -> Dict[str, PolicyEvaluator]:
    """One evaluator per scheme for a single program pass."""
    swap_case = choose_swap_case(stats)
    evaluators: Dict[str, PolicyEvaluator] = {}
    for kind in schemes:
        family, _params = REGISTRY.resolve(kind)
        if family.supports_swap:
            # the matcher itself weighs router swaps (section 4.1/4.2)
            policy = make_policy(kind, fu_class, num_modules, stats=stats,
                                 scheme=scheme, allow_swap=with_hw_swap)
            pre_swapper = None
        else:
            policy = make_policy(kind, fu_class, num_modules, stats=stats,
                                 scheme=scheme)
            pre_swapper = (HardwareSwapper(scheme, swap_case)
                           if with_hw_swap else None)
        evaluators[kind] = PolicyEvaluator(fu_class, num_modules, policy,
                                           scheme=scheme,
                                           pre_swapper=pre_swapper)
    return evaluators


def run_figure4(fu_class: FUClass,
                workloads: Optional[Iterable[Workload]] = None,
                scale: Optional[int] = None,
                config: Optional[MachineConfig] = None,
                stats_source: str = "measured",
                schemes: Sequence[str] = SCHEMES,
                swap_modes: Sequence[str] = ("none", "hw", "hw+compiler"),
                scheme: Optional[InfoBitScheme] = None,
                trace_cache_dir=None,
                engine: str = "batch",
                jobs: int = 1,
                trace_cache_limit_mb: Optional[float] = None
                ) -> Figure4Result:
    """Reproduce one panel of Figure 4.

    ``stats_source`` selects where the LUT-synthesis statistics come
    from: ``"measured"`` (a profiling pass over the suite, the
    self-consistent default) or ``"paper"`` (the published Table 1/2).

    Each program version is simulated exactly once; the captured stream
    is replayed for the statistics pass and every evaluator set.  With
    ``trace_cache_dir`` the captures are persisted content-addressed,
    so a rerun with unchanged programs and machine config simulates
    nothing at all (``result.cache_hits`` / ``cache_misses`` report
    what happened; ``result.simulations`` counts actual simulator
    runs).  ``trace_cache_limit_mb`` prunes the cache LRU-style after
    the run, never evicting an entry this run just used.

    ``engine`` picks the evaluation path: ``"batch"`` (default) runs
    the fused columnar kernels over packed streams; ``"object"`` is the
    classic decoded-stream loop, kept as the reference oracle the
    parity tests compare against.  Both produce bit-identical results.
    ``jobs`` > 1 fans the per-workload replay work across a process
    pool (results merge deterministically, so the output is byte-stable
    regardless of the job count).
    """
    _check_engine(engine)
    if jobs > 1:
        from .parallel import ParallelFigureRunner
        return ParallelFigureRunner(jobs=jobs).run_figure4(
            fu_class, workloads=workloads, scale=scale, config=config,
            stats_source=stats_source, schemes=schemes,
            swap_modes=swap_modes, scheme=scheme,
            trace_cache_dir=trace_cache_dir, engine=engine,
            trace_cache_limit_mb=trace_cache_limit_mb)
    config = config or default_config()
    if workloads is None:
        workloads = (integer_suite() if fu_class is FUClass.IALU
                     else float_suite())
    workloads = list(workloads)
    scheme = scheme or scheme_for(fu_class)
    programs = [w.build(scale) for w in workloads]
    num_modules = config.modules(fu_class)
    if stats_source not in ("measured", "paper"):
        raise ValueError("stats_source must be 'measured' or 'paper'")

    # one simulation (or cache hit) per unmodified program version; the
    # captured streams feed the statistics pass *and* the evaluator sets
    captured: List[IssueSource] = []
    hits = misses = 0
    for program in programs:
        stream, hit = _captured_stream(program, config, fu_class,
                                       trace_cache_dir, engine)
        captured.append(stream)
        hits += hit
        misses += not hit

    if stats_source == "paper":
        stats = paper_statistics(fu_class)
    else:
        stats, _, _ = statistics_from_sources(captured, fu_class, config,
                                              scheme)

    result = Figure4Result(fu_class=fu_class,
                           workload_names=[w.name for w in workloads],
                           statistics=stats)
    needs_compiler = any("compiler" in m for m in swap_modes)
    used_programs: List[Program] = list(programs)

    for program, stream in zip(programs, captured):
        plain_modes = [m for m in ("none", "hw") if m in swap_modes]
        if "none" not in plain_modes:
            plain_modes.append("none")  # the baseline cell is always needed
        _evaluate_modes(stream, program.name, fu_class, num_modules, stats,
                        scheme, schemes, plain_modes, result)
        if needs_compiler:
            # the compiler must canonicalise in the same direction the
            # hardware swap rule implies, or the two mechanisms fight
            from ..compiler.swap_pass import denser_first_from_swap_case
            direction = {fu_class:
                         denser_first_from_swap_case(choose_swap_case(stats))}
            swapped, _report = swap_optimize(program, denser_first=direction)
            compiler_modes = [m for m in ("compiler", "hw+compiler")
                              if m in swap_modes]
            # the rewritten program is a distinct version (different
            # instruction content, so a different cache key)
            sw_stream, hit = _captured_stream(swapped, config, fu_class,
                                              trace_cache_dir, engine)
            hits += hit
            misses += not hit
            _evaluate_modes(sw_stream, swapped.name, fu_class, num_modules,
                            stats, scheme, schemes, compiler_modes, result)
            used_programs.append(swapped)
    result.cache_hits = hits if trace_cache_dir is not None else 0
    result.cache_misses = misses if trace_cache_dir is not None else 0
    result.simulations = misses
    if trace_cache_dir is not None and trace_cache_limit_mb is not None:
        protect = [Path(trace_cache_dir)
                   / (trace_cache_key(p, config, (fu_class,)) + ".trace.gz")
                   for p in used_programs]
        prune_trace_cache(trace_cache_dir, trace_cache_limit_mb,
                          protect=protect)
    return result


def _evaluate_modes(stream: IssueSource, program_name: str,
                    fu_class: FUClass, num_modules: int,
                    stats: CaseStatistics, scheme: InfoBitScheme,
                    schemes: Sequence[str], modes: Sequence[str],
                    result: Figure4Result) -> None:
    """Replay one program version's stream through evaluators for
    ``modes`` — no simulation happens here."""
    per_mode: Dict[str, Dict[str, PolicyEvaluator]] = {}
    consumers: List[PolicyEvaluator] = []
    for mode in modes:
        hw = mode in ("hw", "hw+compiler")
        evaluators = _build_evaluators(fu_class, num_modules, stats, scheme,
                                       schemes, with_hw_swap=hw)
        per_mode[mode] = evaluators
        consumers.extend(evaluators.values())
    drive_stream(stream, consumers)
    workload_name = program_name.removesuffix("+cswap")
    breakdown = result.per_workload.setdefault(workload_name, {})
    for mode, evaluators in per_mode.items():
        for kind, evaluator in evaluators.items():
            cell = result.cells.setdefault((kind, mode),
                                           CellResult(kind, mode))
            totals = evaluator.totals()
            cell.switched_bits += totals.switched_bits
            cell.operations += totals.operations
            cell.hardware_swaps += totals.hardware_swaps
            breakdown[(kind, mode)] = breakdown.get((kind, mode), 0) \
                + totals.switched_bits


def run_figure4_synthetic(fu_class: FUClass,
                          cycles: int = 20_000,
                          stats: Optional[CaseStatistics] = None,
                          num_modules: int = 4,
                          operand_mode: str = "iid",
                          seed: int = 0,
                          schemes: Sequence[str] = SCHEMES,
                          swap_modes: Sequence[str] = ("none", "hw"),
                          scheme: Optional[InfoBitScheme] = None
                          ) -> Figure4Result:
    """Figure 4 on a synthetic stream calibrated to given statistics.

    By default the stream is drawn from the paper's own Table 1 and
    Table 2 distributions, so this is the *calibration* reproduction:
    the policies see operand statistics identical to the published
    ones, independent of how closely our kernels match SPEC 95.
    Compiler swapping needs a program to rewrite, so only ``none`` and
    ``hw`` regimes apply here.
    """
    if any("compiler" in mode for mode in swap_modes):
        raise ValueError("compiler swapping needs real programs; use"
                         " run_figure4 for compiler regimes")
    stats = stats or paper_statistics(fu_class)
    scheme = scheme or scheme_for(fu_class)
    result = Figure4Result(fu_class=fu_class,
                           workload_names=[f"synthetic-{operand_mode}"],
                           statistics=stats)
    modes = list(swap_modes)
    if "none" not in modes:
        modes.append("none")
    evaluator_sets = {}
    for mode in modes:
        evaluator_sets[mode] = _build_evaluators(
            fu_class, num_modules, stats, scheme, schemes,
            with_hw_swap=(mode == "hw"))
    source = SyntheticSource(stats, cycles, num_modules=num_modules,
                             operand_mode=operand_mode, seed=seed)
    drive(source, [evaluator for evaluators in evaluator_sets.values()
                   for evaluator in evaluators.values()])
    for mode, evaluators in evaluator_sets.items():
        for kind, evaluator in evaluators.items():
            totals = evaluator.totals()
            cell = result.cells.setdefault((kind, mode),
                                           CellResult(kind, mode))
            cell.switched_bits += totals.switched_bits
            cell.operations += totals.operations
            cell.hardware_swaps += totals.hardware_swaps
    return result


def chip_level_estimate(ialu: Figure4Result, fpau: Figure4Result,
                        scheme: str = "lut-4", swap: str = "hw",
                        exec_fraction: float = 0.22) -> float:
    """Whole-chip power-reduction estimate, as in the paper's intro.

    The execution units' share of chip power (~22% per Wattch) is split
    between the IALU and FPAU in proportion to their switched-bit
    baselines, and each side contributes its measured reduction.
    """
    ialu_base = ialu.baseline_bits
    fpau_base = fpau.baseline_bits
    total = ialu_base + fpau_base
    if not total:
        return 0.0
    blended = (ialu.reduction(scheme, swap) * ialu_base
               + fpau.reduction(scheme, swap) * fpau_base) / total
    return exec_fraction * blended
